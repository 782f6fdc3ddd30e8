"""Correctness gate: checks what the outputs mean, not their bytes.

Every check returns a list of failure messages (empty when it passes).  The
checks read only the files a command wrote and parse them by column name, so
added columns or header lines do not trip them.  Exact values are compared
only for the workload's default seed (see ``golden.json``); every other seed
gets the shape-implied case counts, internal consistency between report and
verdicts, and the ordering ``auc(z) = 1 >= auc(f) >= auc(janapati)`` that the
ladder dataset shows for any noise realization.
"""

import csv
import json
import math
from pathlib import Path

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

PAIR_METRICS = ("f", "janapati", "qiu")
ENSEMBLE_METRICS = ("fm", "z")
AUC_TOL = 5e-7  # AUCs are printed with six decimals


def _rows(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _one(directory: Path, pattern: str, errors: list):
    found = sorted(directory.glob(pattern))
    if len(found) != 1:
        errors.append(f"{directory.name}: expected one {pattern}, found {len(found)}")
        return None
    return found[0]


def check_simulate(data_dir: Path, shape) -> list:
    errors = []
    manifest = data_dir / "manifest.csv"
    if not manifest.is_file():
        return [f"simulate: {manifest.name} missing"]
    lines = manifest.read_text().splitlines()
    header = "file,label,path_id,set_id"
    if header not in lines:
        return ["simulate: manifest has no CSV header"]
    body = [ln.split(",") for ln in lines[lines.index(header) + 1:] if ln.strip()]
    if len(body) != shape.n_records:
        errors.append(f"simulate: {len(body)} records, expected {shape.n_records}")
    healthy = sum(1 for row in body if row[1] == "healthy")
    if healthy != shape.n_baseline:
        errors.append(f"simulate: {healthy} healthy records, expected {shape.n_baseline}")
    missing = [row[0] for row in body if not (data_dir / row[0]).is_file()]
    if missing:
        errors.append(f"simulate: {len(missing)} signal files missing, e.g. {missing[0]}")
    elif body:
        n = len((data_dir / body[0][0]).read_text().splitlines()) - 2
        if n != shape.n_samples:
            errors.append(f"simulate: {body[0][0]} has {n} samples, expected {shape.n_samples}")
    return errors


def check_detect(out_dir: Path, shape, golden=None) -> list:
    errors = []
    report = _one(out_dir, "report_*.csv", errors)
    verdicts = _one(out_dir, "verdicts_*.csv", errors)
    if report is None or verdicts is None:
        return errors
    rows = _rows(report)
    table = {(r["metric"], r["kind"], r["label"]): (int(r["count"]), int(r["cases"]))
             for r in rows}
    for metric in PAIR_METRICS + ENSEMBLE_METRICS:
        pair = metric in PAIR_METRICS
        want_h = shape.n_train * shape.holdout if pair else shape.holdout
        want_d = shape.n_per_damage * (shape.n_train if pair else 1)
        fa = table.get((metric, "false_alarm", ""))
        if fa is None or fa[1] != want_h:
            errors.append(f"detect: {metric} has {fa and fa[1]} healthy cases, expected {want_h}")
        labels = [k[2] for k in table if k[0] == metric and k[1] == "missed"]
        if len(labels) != shape.ladder_steps:
            errors.append(f"detect: {metric} reports {len(labels)} damage labels, "
                          f"expected {shape.ladder_steps}")
        for label in labels:
            if table[metric, "missed", label][1] != want_d:
                errors.append(f"detect: {metric}/{label} has "
                              f"{table[metric, 'missed', label][1]} cases, expected {want_d}")
    # the report's counts must follow from the per-case verdicts
    tally = {}
    for v in _rows(verdicts):
        if v["verdict"] not in ("healthy", "damaged"):
            errors.append(f"detect: verdict {v['verdict']!r} for {v['case_id']}")
            continue
        healthy = v["label"] == "healthy"
        key = (v["metric"], "false_alarm" if healthy else "missed", "" if healthy else v["label"])
        count, cases = tally.get(key, (0, 0))
        flagged = v["verdict"] == "damaged"
        tally[key] = (count + (flagged if healthy else not flagged), cases + 1)
    if tally != table:
        diff = sorted(k for k in set(tally) | set(table) if tally.get(k) != table.get(k))
        errors.append(f"detect: report disagrees with verdicts at {diff[:3]}")
    curves = len(list(out_dir.glob("stat_*.csv")))
    if curves != 3 * shape.n_damage:
        errors.append(f"detect: {curves} statistic curves, expected {3 * shape.n_damage}")
    if not (out_dir / "summary.txt").is_file():
        errors.append("detect: summary.txt missing")
    if golden is not None:
        want = {(m, k, lbl): (c, n) for m, k, lbl, c, n in golden["report"]}
        if table != want:
            diff = sorted(k for k in set(want) | set(table) if want.get(k) != table.get(k))
            errors.append(f"detect: counts differ from the default-seed record at {diff[:3]}")
    return errors


def read_aucs(out_dir: Path, metrics, errors: list) -> dict:
    """AUC per metric from the ROC files, after checking each curve."""
    aucs = {}
    for metric in metrics:
        path = _one(out_dir, f"roc_*_{metric}.csv", errors)
        if path is None:
            continue
        text = path.read_text()
        auc = [ln.split("=", 1)[1].strip() for ln in text.splitlines()
               if ln.startswith("# auc")]
        if len(auc) != 1:
            errors.append(f"roc: {path.name} has no auc line")
            continue
        aucs[metric] = auc[0]
        points = [(float(r["alpha"]), float(r["fpr"]), float(r["tpr"])) for r in _rows(path)]
        if len(points) != 61:
            errors.append(f"roc: {path.name} has {len(points)} points, expected 61")
        points.sort()
        for (a0, f0, t0), (a1, f1, t1) in zip(points, points[1:]):
            if f1 < f0 or t1 < t0:
                errors.append(f"roc: {path.name} not monotone in alpha at {a1:g}")
                break
        if not all(0.0 <= x <= 1.0 for _, f, t in points for x in (f, t)):
            errors.append(f"roc: {path.name} has a rate outside [0, 1]")
    return aucs


def check_roc(out_dir: Path, golden=None):
    """Checks the ``f``/``fm``/``z`` curves; returns (failures, AUC per metric)."""
    errors = []
    aucs = read_aucs(out_dir, ("f", "fm", "z"), errors)
    if {"f", "z"} <= set(aucs):
        f, z = float(aucs["f"]), float(aucs["z"])
        if abs(z - 1.0) > AUC_TOL:
            errors.append(f"roc: auc(z) = {aucs['z']}, expected 1")
        if z < f:
            errors.append(f"roc: auc(z) = {aucs['z']} < auc(f) = {aucs['f']}")
    if golden is not None:
        for metric, value in aucs.items():
            if value != golden["auc"][metric]:
                errors.append(f"roc: auc({metric}) = {value}, default-seed record "
                              f"{golden['auc'][metric]}")
    return errors, aucs


def check_damage_indices(out_dir: Path, auc_f: str, golden=None) -> list:
    """auc(f) >= auc(janapati) from a ROC run over both damage indices."""
    errors = []
    aucs = read_aucs(out_dir, ("janapati", "qiu"), errors)
    if "janapati" in aucs and float(aucs["janapati"]) > float(auc_f):
        errors.append(f"roc: auc(f) = {auc_f} < auc(janapati) = {aucs['janapati']}")
    if golden is not None:
        for metric, value in aucs.items():
            if value != golden["auc"][metric]:
                errors.append(f"roc: auc({metric}) = {value}, default-seed record "
                              f"{golden['auc'][metric]}")
    return errors


def check_psd(out_dir: Path, shape) -> list:
    errors = []
    curves = sorted(out_dir.glob("psd_*.csv"))
    if len(curves) != shape.n_records:
        errors.append(f"psd: {len(curves)} PSD curves, expected {shape.n_records}")
    if curves:
        values = [float(r["psd"]) for r in _rows(curves[0])]
        if len(values) != shape.n_bins or min(values) < 0.0:
            errors.append(f"psd: {curves[0].name} has {len(values)} bins or a negative value")
    for kind in ("theoretical", "experimental"):
        band = _one(out_dir, f"band_{kind}_*.csv", errors)
        if band is None:
            continue
        rows = _rows(band)
        if len(rows) != shape.n_bins:
            errors.append(f"psd: {band.name} has {len(rows)} bins, expected {shape.n_bins}")
        if any(float(r["lower"]) > float(r["upper"]) for r in rows):
            errors.append(f"psd: {band.name} has lower > upper")
    return errors


def binomial_slack(alpha: float, n: int) -> float:
    """Five standard errors of a rejection rate, plus one count."""
    return 5.0 * math.sqrt(alpha * (1.0 - alpha) / n) + 1.0 / n


def check_calibration(rejections: dict, n_trials: int, first_pass=None, golden=None) -> list:
    """Null rejection rates: ``f``/``fm`` near alpha, ``z`` at most alpha.

    ``f`` and ``fm`` are exact F laws for white Gaussian noise with a
    rectangular window and no overlap, so their rates sit within a binomial
    bound of alpha.  ``z`` against freshly drawn ensembles is conservative by
    construction, so only its upper side is bounded.
    """
    errors = []
    for (metric, alpha), count in sorted(rejections.items()):
        rate = count / n_trials
        slack = binomial_slack(alpha, n_trials)
        high = rate > alpha + slack
        low = metric != "z" and rate < alpha - slack
        if high or low:
            errors.append(f"null-mc: {metric} at alpha={alpha} rejects {rate:.4f} "
                          f"over {n_trials} trials (bound +/-{slack:.4f})")
    if golden is not None:
        got = {f"{m}@{a}": c for (m, a), c in first_pass.items()}
        if got != golden["first_pass"]:
            errors.append(f"null-mc: first-pass rejections {got} differ from the "
                          f"default-seed record {golden['first_pass']}")
    return errors

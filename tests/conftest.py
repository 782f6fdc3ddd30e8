import sys

import pytest

from gwdetect.simulate import attenuation_ladder, synth_dataset
from gwdetect.spectral import WelchConfig

BENCH_WELCH = WelchConfig(segment_length=100, overlap_fraction=0.5, nfft=2000,
                          window_kind="hamming")


@pytest.fixture(scope="session")
def ladder_dataset(tmp_path_factory):
    """20 healthy records plus a 6-step attenuation ladder at 40 dB SNR."""
    root = tmp_path_factory.mktemp("ladder")
    manifest = synth_dataset(root, n_baseline=20,
                             damage_specs=attenuation_ladder(6),
                             n_per_damage=5, seed=2024, snr_db=40.0,
                             n_samples=3000)
    return manifest


@pytest.fixture()
def bench_welch():
    return BENCH_WELCH


class _OpenLog:
    """The paths passed to ``open`` while a test listens.  An audit hook
    cannot be removed, so one is added per test process and is idle between
    tests."""

    paths = None
    hooked = False

    @classmethod
    def hook(cls, event, args):
        if event == "open" and cls.paths is not None:
            cls.paths.append(str(args[0]))


@pytest.fixture()
def opened():
    """The list of paths that ``open`` is called with during the test, files
    that do not exist among them."""
    if not _OpenLog.hooked:
        sys.addaudithook(_OpenLog.hook)
        _OpenLog.hooked = True
    _OpenLog.paths = []
    try:
        yield _OpenLog.paths
    finally:
        _OpenLog.paths = None

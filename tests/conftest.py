import sys
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for reference_pf, http_stub

from http_stub import StubHandler

from gridsigma import builtin_ieee14, build_dataset, default_layout, synth_load_profile
from gridsigma import detectors

GOLDEN_DIR = Path(__file__).parent / "golden_prompts" / "v1"


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite golden prompt snapshots instead of comparing",
    )


@pytest.fixture(scope="session")
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def ieee14():
    return builtin_ieee14()


@pytest.fixture(scope="session")
def layout68(ieee14):
    return default_layout(ieee14)


@pytest.fixture(scope="session")
def dataset42(ieee14, layout68):
    """The default benchmark dataset: 1600 samples, seed 42."""
    profile = synth_load_profile(800, len(ieee14.buses), seed=42)
    return build_dataset(ieee14, profile, layout68, seed=42)


@pytest.fixture(scope="session")
def model42(dataset42):
    """Trained and calibrated detector on the seed-42 dataset."""
    model = detectors.train_autoencoder(
        dataset42.split_features("train", "normal"), seed=42,
        val_normals=dataset42.split_features("validation", "normal"),
        stats=dataset42.stats,
    )
    return detectors.calibrate(model, dataset42.split_features("validation"),
                               dataset42.anomalous[dataset42.split_ids("validation")])


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.requests = []
    server.behavior = lambda text, n: {"kind": "reply", "text": "normal\nStub reply."}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()

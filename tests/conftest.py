import ctypes
import multiprocessing
import threading

import numpy as np
import pytest

from secureftl import paillier
from secureftl.datasets import FederationSplit
from secureftl.encoding import decode_raw, encode
from secureftl.paillier import PrivateKey, contractions
from secureftl.transport import loopback_pair


def pytest_report_header():
    """Which exponentiation the crypto runs on, so a run on the slow
    builtin fallback shows in the log."""
    if paillier._powmod is pow:
        return "powmod: builtin pow (libgmp not found)"
    version = ctypes.c_char_p.in_dll(paillier._GMP, "__gmp_version").value.decode()
    return f"powmod: libgmp {version}"


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the header, so a quiet run prints the line at its end instead.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header())


# One-value forms of the batch crypto calls, for tests that check one value.
def encrypt(key, value: float, frac_bits: int, rng=None):
    """value encoded at frac_bits, encrypted through encrypt_raws under an
    owner's PrivateKey, or through encrypt_raw under a peer's PublicKey."""
    raw = encode(value, frac_bits)
    if isinstance(key, PrivateKey):
        (ct,) = key.encrypt_raws([raw], frac_bits, rng)
        return ct
    return key.encrypt_raw(raw, frac_bits, rng)


def decrypt_raw(key: PrivateKey, ct) -> int:
    """ct's signed raw integer, through decrypt_raws."""
    (raw,) = key.decrypt_raws([ct])
    return raw


def decrypt(key: PrivateKey, ct) -> float:
    return decode_raw(decrypt_raw(key, ct), ct.frac_bits)


def multiply(ct, scalar: float, frac_bits: int):
    """ct, or the structural zero, times a float scalar encoded at frac_bits:
    the one-element contraction [ct] @ [scalar] on the builtin map."""
    (product,) = contractions(map, ([ct], [scalar], frac_bits))
    return product.item()


@pytest.fixture
def small_split():
    """Hand-built five-row federation: 3 shared rows, 1 source-only, 1 eval."""
    rng = np.random.default_rng(42)
    ids_source = np.array([10, 11, 12, 13])
    ids_target = np.array([10, 11, 12, 14])
    split = FederationSplit(
        ids_source=ids_source,
        x_source=rng.normal(size=(4, 3)),
        labels_source=np.array([1, -1, 1, -1]),
        ids_target=ids_target,
        x_target=rng.normal(size=(4, 2)),
        overlap_ids=np.array([10, 11, 12]),
        labeled_ids=np.array([10, 11]),
        eval_ids=np.array([14]),
        labels_eval=np.array([1]),
    )
    split.validate()
    return split


@pytest.fixture
def loopback():
    """A (source end, target end, transcript) loopback pair whose ends are
    closed after the test, so their writer threads end with it."""
    source_end, target_end, transcript = loopback_pair()
    yield source_end, target_end, transcript
    source_end.close()
    target_end.close()


@pytest.fixture(autouse=True)
def no_process_outlives_its_test():
    """Fail any test that leaves a child process running: train_encrypted and
    predict_encrypted must terminate and join their worker pool however a
    run ends."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes left running: {left}"


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail any test that leaves a thread it started running: a party thread,
    an executor's manager thread or a socket writer must end with the call
    that started it."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left running: {left}"

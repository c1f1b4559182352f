"""The pinned blinding elements, the OpenSSL exponentiation and the
per-session key schedule in pcp.pake."""

import builtins
import ctypes
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from pcp import pake

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

BASES = {"G": pake._G, "M": pake._M, "N": pake._N}
EDGE_EXPONENTS = [1, pake._Q - 1, 2**256 - 1]
RANDOM_EXPONENTS = [random.Random(5).randrange(pake._Q) for _ in range(50)]


@pytest.mark.parametrize("name", BASES)
def test_fixed_base_pow_matches_pow(name):
    # on whichever provider loaded: libcrypto here, or pow on a host without it
    base = BASES[name]
    for exp in EDGE_EXPONENTS + RANDOM_EXPONENTS:
        assert pake._pow(base, exp) == pow(base, exp, pake._P), exp


@pytest.mark.parametrize(
    "name, seed",
    [("M", b"pcp pake blinding element M"), ("N", b"pcp pake blinding element N")],
)
def test_pinned_blinding_element_is_its_seed_derivation(name, seed):
    element = BASES[name]
    assert element == pake._hash_to_subgroup(seed)
    assert element != 1
    assert pow(element, pake._Q, pake._P) == 1


def _python(code, pythonpath, tmp_path):
    """Run ``code`` in a fresh interpreter that imports pcp from ``pythonpath``."""
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )


def test_importing_the_cli_runs_no_exponentiation(tmp_path):
    # a fresh process, so that nothing is imported yet; the profiler sees
    # every Python call and every call of a built-in, so it watches both
    # providers of _pow: the built-in pow and the OpenSSL binding. Importing
    # must start no process either: subprocess is how one would be started,
    # and ctypes.util.find_library would start ldconfig.
    code = """
import builtins, sys
calls = []
def watch(frame, event, arg):
    if event == "c_call" and arg is builtins.pow:
        calls.append("pow")
    elif event == "call" and frame.f_code.co_name == "openssl_pow":
        calls.append("openssl_pow")
sys.setprofile(watch)
import pcp.cli
sys.setprofile(None)
calls += [name for name in ("subprocess", "ctypes.util") if name in sys.modules]
print(calls)
"""
    run = _python(code, SRC, tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


needs_openssl = pytest.mark.skipif(
    pake._pow is pake._builtin_pow,
    reason="libcrypto.so.3 does not load here, so _pow is the built-in pow",
)

OPENSSL_RNG = random.Random(11)
OPENSSL_BASES = [0, 1, pake._P - 1, pake._P, 2 * pake._P + 3] + [
    OPENSSL_RNG.getrandbits(3072) for _ in range(8)
]
OPENSSL_EXPONENTS = {
    "1-bit": 1,
    "32-bit": OPENSSL_RNG.getrandbits(32) | 1 << 31,
    "256-bit": OPENSSL_RNG.getrandbits(256) | 1 << 255,
    "Q": pake._Q,
}


@needs_openssl
@pytest.mark.parametrize("exp", OPENSSL_EXPONENTS.values(), ids=OPENSSL_EXPONENTS)
def test_openssl_pow_matches_pow(exp):
    for base in OPENSSL_BASES:
        assert pake._pow(base, exp) == pow(base, exp, pake._P), base


@needs_openssl
def test_threads_share_the_openssl_binding():
    # each call gets its own BN_CTX, and ctypes drops the GIL during it,
    # so two threads run their exponentiations at the same time
    rng = random.Random(12)
    work = [
        [(rng.getrandbits(3072), rng.getrandbits(256) | 1 << 255) for _ in range(20)]
        for _ in range(2)
    ]
    results = [None, None]
    start = threading.Barrier(2, timeout=60)

    def worker(i):
        start.wait()
        results[i] = [pake._pow(base, exp) for base, exp in work[i]]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for i in range(2):
        assert results[i] == [pow(base, exp, pake._P) for base, exp in work[i]], i


def test_openssl_loader_without_the_library_gives_no_binding(monkeypatch):
    def missing(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", missing)
    assert pake._load_openssl_pow() is None


def test_every_data_file_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        globs = tomllib.load(f)["tool"]["setuptools"]["package-data"]["pcp"]
    package = SRC / "pcp"
    shipped = {path for pattern in globs for path in package.glob(pattern)}
    data_files = {path for path in (package / "data").rglob("*") if path.is_file()}
    assert data_files
    assert data_files <= shipped, sorted(str(p.relative_to(package)) for p in data_files - shipped)


PASSWORD = b"alfa-bravo-charlie-delta"
BINDING = "/pcp/1700000100/0"
ROLES = [pake.ROLE_INITIATOR, pake.ROLE_RESPONDER]


def _other(role):
    return pake.ROLE_RESPONDER if role == pake.ROLE_INITIATOR else pake.ROLE_INITIATOR


def _count_fixed_base_pow(monkeypatch):
    """Record the base of every _pow call whose base is G, M or N."""
    calls = []
    real = pake._pow

    def counting(base, exp):
        if base in BASES.values():
            calls.append(base)
        return real(base, exp)

    monkeypatch.setattr(pake, "_pow", counting)
    return calls


@pytest.mark.parametrize("role", ROLES)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_party_from_shared_password_matches_party_from_bytes(role, seed):
    peer = pake.PakeParty(PASSWORD, _other(role), BINDING, random.Random(100 + seed))
    shared = pake.PakePassword(PASSWORD)
    # an earlier handshake of the same session has already filled the cache
    pake.PakeParty(shared, role, BINDING, random.Random(200 + seed)).derive(peer.message())
    from_bytes = pake.PakeParty(PASSWORD, role, BINDING, random.Random(seed))
    from_shared = pake.PakeParty(shared, role, BINDING, random.Random(seed))
    assert from_shared.message() == from_bytes.message()
    master = from_shared.derive(peer.message())
    assert master == from_bytes.derive(peer.message())
    assert master == peer.derive(from_shared.message())


@pytest.mark.parametrize("role", ROLES)
def test_shared_password_computes_its_two_values_once(role, monkeypatch):
    peer_message = pake.PakeParty(PASSWORD, _other(role), BINDING, random.Random(1)).message()
    calls = _count_fixed_base_pow(monkeypatch)
    shared = pake.PakePassword(PASSWORD)
    rng = random.Random(2)
    parties = [pake.PakeParty(shared, role, BINDING, rng) for _ in range(3)]
    for party in parties:
        party.derive(peer_message)
    assert len(calls) == 3 + 2
    assert calls.count(pake._G) == 3


def test_parties_from_the_same_bytes_share_nothing(monkeypatch):
    calls = _count_fixed_base_pow(monkeypatch)
    rng = random.Random(3)
    pake.PakeParty(PASSWORD, pake.ROLE_RESPONDER, BINDING, rng)
    assert len(calls) == 2
    pake.PakeParty(PASSWORD, pake.ROLE_RESPONDER, BINDING, rng)
    assert len(calls) == 4


@pytest.mark.parametrize("role", ROLES)
@pytest.mark.parametrize("seed", [0, 4])
def test_party_bytes_do_not_depend_on_the_pow_provider(role, seed, monkeypatch):
    def handshake():
        party = pake.PakeParty(PASSWORD, role, BINDING, random.Random(seed))
        peer = pake.PakeParty(PASSWORD, _other(role), BINDING, random.Random(seed + 50))
        return party.message(), party.derive(peer.message())

    provided = handshake()
    monkeypatch.setattr(pake, "_pow", pake._builtin_pow)
    assert handshake() == provided


@needs_openssl
def test_every_exponentiation_of_a_handshake_runs_on_openssl(monkeypatch):
    # BN_mod_exp_mont_consttime is the constant-time path: each of a side's
    # five exponentiations, the three with a fixed base included, must reach
    # it, and none may fall back to the built-in pow inside the binding
    calls, fallbacks = [], []
    openssl_pow = pake._pow

    def recording(base, exp):
        calls.append((base, exp))
        return openssl_pow(base, exp)

    def watch(frame, event, arg):
        if event == "c_call" and arg is builtins.pow:
            fallbacks.append(frame.f_code.co_name)

    monkeypatch.setattr(pake, "_pow", recording)
    sys.setprofile(watch)
    try:
        initiator = pake.PakeParty(PASSWORD, pake.ROLE_INITIATOR, BINDING, random.Random(8))
        responder = pake.PakeParty(PASSWORD, pake.ROLE_RESPONDER, BINDING, random.Random(9))
        masters = initiator.derive(responder.message()), responder.derive(initiator.message())
    finally:
        sys.setprofile(None)
    assert masters[0] == masters[1]
    assert fallbacks == []

    P, Q, w = pake._P, pake._Q, pake._password_scalar(PASSWORD)

    def side(party, blind, peer, peer_blind):
        return [
            (pake._G, party._x),
            (blind, w),
            (peer._element, Q),
            (peer_blind, Q - w),
            (peer._element * pow(peer_blind, Q - w, P) % P, party._x),
        ]

    i_calls = side(initiator, pake._M, responder, pake._N)
    r_calls = side(responder, pake._N, initiator, pake._M)
    # each party computes its share at construction, then derives
    assert calls == i_calls[:2] + r_calls[:2] + i_calls[2:] + r_calls[2:]

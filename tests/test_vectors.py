"""Known-answer vectors for the key schedule and the first sealed frames.

Both ends of every other test run the same code, so an edit that changes
the wire (a hash prefix, a label, the nonce layout) passes them all while it
makes pcp unable to talk to the version before it. These vectors pin the
bytes: fixed words, a fixed rendezvous id, and a seeded ``random.Random`` of
its own for each side's scalar.

They are checked three ways: pcp's exchange and key split give the pinned
secrets, a session over the simulated network sends the pinned frames, and
the key schedule as README "Wire format" gives it, re-derived here with
only ``hashlib``, ``hmac``, ``ChaCha20Poly1305``, the built-in ``pow`` and
the group's constants, gives them too. Both ``_pow`` providers must give
the same vectors.
"""

import hashlib
import hmac
import random

import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from pcp import auth, pake, simnet
from pcp.auth import PakeSecret, confirm_key, derive_session_keys, pake_handshake
from pcp.kernel import Kernel, spawn
from pcp.simnet import SimulatedNetwork
from pcp.transfer import receive_file

from conftest import send_path

PASSWORD = b"abandon-zoo-zebra-wrap"
BINDING = "/pcp/1699999800/0"
INITIATOR_SEED, RESPONDER_SEED = 1, 2  # each side's scalar comes from its own Random
BODY_NAME, BODY = "kat.bin", b"pcp known-answer body\n"

VECTORS = {
    "msg1": (
        "01010000019300112f7063702f313639393939393830302f30481a8d92744758"
        "c03dcd87ebcea2b01bd3b29ffcdbeccdcedc82dfd81e53701573c4fba34498c9"
        "efa6fd7301c17dc5993aca597ea8a0f4c8c26e1110e9a2cf3eb0a9c91758ccf7"
        "64bffc3c50a3041bb533acb4db8b503796a7cc10e0ff781a87afd793a7c9c723"
        "b69a33c98d9f498221d36d9df0a84312830c903dd7729960537b05f9a447a6e0"
        "17249c2e23a6677cb4544dbd0b0e9a81974cf26d06ce9575b1bcadc63bdf722d"
        "6d688dec1c21ce621f2a4af228236d1263512d5142d100c60f57238c549cc109"
        "789c1a13f4441dff55403585c5dbbd18033d6e4b43c19db4636781ec437f5224"
        "06d8ae31922ea1b81a3c1cb5473b90ed49bdbf3b1b395cee2f98adda93868a9f"
        "91005545ddff431f0295f6425ff97000596e69db43644e519ed21db0c1a5d068"
        "c7e3c3b17f05c6aeca6dfc1c5d1e8691fb61713aab45d74d2dc2892e65fd374f"
        "7ea5bccb3500059df04a1f91882ac8b3243b710453ab5df5dd2420e24b93f3bd"
        "a0a9d4a30c1fd482c2d9c45528a5d119367844522429627d08"
    ),
    "msg2": (
        "010200000180249e4fa3b59f81d7413a9774ddd6c412ba8d57bb95cbe8e425e8"
        "fb20da54484369b8d6be315fb99238a3eca26e575baa758f7d02d1b6334d8037"
        "ad8c78419ebdd5760d971b58bbfa80beabf9d277665f6743de5188b3c3fa4a2e"
        "0ad44496a8d99dfa9dc9ad044b1ff9c8f42710b6f3d58cf4e21d77ec8c5c799e"
        "7a0348f351c1ef94f797d669ad7547af266cee0acdb1d931f904a410bd2c4568"
        "aa86a6d4de348c37dc8af5f3b43ec86dc47f7a0661e34c42d3e6abe5d491c8c5"
        "8a57c27a310d87bf1aae0a21ba8ac169c3de1e9bc1b09238fa9568761aad9846"
        "ee6c48f25eedf3a19c9c0a8d080b933cd081d7c9c65b0e811a548bb79aebd3be"
        "7dbff40ec07ad702c4a3823bf14b052973e6a5ede0a01f384abf97beb93e3e1a"
        "089bf0f2c3d33d04676d80c822acb2eefac5a9d4d16ce65d15ea49199a5d6e4b"
        "ac85ebce7f085a1123277b7e2f5c9ce19fc8d05c92c809d66a2e5dd24aa5eaa2"
        "ab04ad95259f73038f2a431863b613ced6be21047403abd7a4fe5744f695afd1"
        "7156843c2805"
    ),
    "master": "a2d5ca8338533aeb29f5841df5d5c27eab6dc8191e0f4748b68fb844f5dc8564",
    "k_send_initiator": "24d068bfeda42866cc1558829aca18c578699e9738899fd204503661a651fadb",
    "k_send_responder": "6c244f5e6379a50ac452d16ad7f1bef4fd9869c8b7afa752ed924836ba00a361",
    "k_confirm": "ef51571bea5c21fb289f642ec4d9f6d8a53e3e1d717fbe4accebb8d6ad28e42f",
    "confirm_initiator": (
        "010300000020c007bab1e92516ced5ecf7a6f55b4bcbe337e5238fac4445fbd5"
        "695166cfcb71"
    ),
    "confirm_responder": (
        "0103000000201738f7789423d46aade0e3db76b01312c78742c65459ef2a22da"
        "650f5e371d06"
    ),
    "manifest": (
        "011000000087f83038bc729045ed9794a050b4d83241f336ecf80bf983e0ce18"
        "8c6835d8aad6410d26d4f62481e439f747d61d14f41276ba3abda9cb79fcae21"
        "1c27770b517e8fad281da254b25cbd4df9820d2a008d71dbef468bab96392f33"
        "7490c1f3507009b396f81e6017dd6760b9b4ead6a1e4a3bf6250ea83351ac74c"
        "4c7595c93806ac1b889a0e2b24"
    ),
    "accept": "01100000001195787e5bd89b189710bb0b67bc87228a37",
    "chunk": (
        "01100000002fe4b6ba16675b74e16c918c4495a47b917b1b6e5e32600831fb93"
        "0187605e5e67e92d060c11942ecd9e83308c70e219"
    ),
    "end": "011000000011c75b9d8962a2d8d0ff6615f5cab44efc9b",
}

_PROVIDERS = {"openssl": pake._pow, "builtin": pake._builtin_pow}


@pytest.fixture(params=sorted(_PROVIDERS))
def pow_provider(request, monkeypatch):
    """Run the test on one _pow provider."""
    if request.param == "openssl" and _PROVIDERS["openssl"] is pake._builtin_pow:
        pytest.skip("libcrypto.so.3 does not load here, so _pow is the built-in pow")
    monkeypatch.setattr(pake, "_pow", _PROVIDERS[request.param])


def _pinned(*names):
    return {name: VECTORS[name] for name in names}


def test_the_exchange_gives_the_pinned_secrets(pow_provider):
    initiator = pake.PakeParty(
        PASSWORD, pake.ROLE_INITIATOR, BINDING, random.Random(INITIATOR_SEED)
    )
    responder = pake.PakeParty(
        PASSWORD, pake.ROLE_RESPONDER, BINDING, random.Random(RESPONDER_SEED)
    )
    master = initiator.derive(responder.message())
    assert responder.derive(initiator.message()) == master
    keys = derive_session_keys(master, pake.ROLE_INITIATOR)
    got = {
        "master": master,
        "k_send_initiator": keys.k_send,
        "k_send_responder": keys.k_recv,
        "k_confirm": keys.k_confirm,
    }
    assert {name: value.hex() for name, value in got.items()} == _pinned(*got)


def test_a_session_sends_the_pinned_frames(pow_provider, tmp_path, monkeypatch):
    """The receiver dials (initiator), the sender answers (responder)."""
    sent = {}
    real_send = simnet.Connection.send

    async def recording(conn, data):
        sent.setdefault(conn.local, []).append(bytes(data))
        await real_send(conn, data)

    monkeypatch.setattr(simnet.Connection, "send", recording)
    kernel = Kernel(seed=0)
    net = SimulatedNetwork(kernel, wan=False)
    net.create_link("lan0", latency=(0.001, 0.001))
    receiver, sender = net.spawn_node(["lan0"]), net.spawn_node(["lan0"])
    src = str(tmp_path / BODY_NAME)
    with open(src, "wb") as f:
        f.write(BODY)

    async def accept(manifest):
        return True

    async def send_side():
        conn = await sender.accept()
        keys, transcript, _ = await pake_handshake(
            conn, PakeSecret(PASSWORD, ""), auth.ROLE_RESPONDER,
            random.Random(RESPONDER_SEED), allowed_bindings={BINDING},
        )
        chan = await confirm_key(conn, keys, transcript)
        return await send_path(chan, src)

    async def main():
        sending = spawn(send_side())
        conn = await receiver.dial(sender.address)
        keys, transcript, _ = await pake_handshake(
            conn, PakeSecret(PASSWORD, BINDING), auth.ROLE_INITIATOR,
            random.Random(INITIATOR_SEED),
        )
        chan = await confirm_key(conn, keys, transcript)
        received = await receive_file(chan, accept, str(tmp_path / "inbox"))
        return await sending.join(), received

    s_out, r_out = kernel.run(main())
    assert s_out.status == r_out.status == "completed"
    assert [f.hex() for f in sent[receiver.address]] == list(
        _pinned("msg1", "confirm_initiator", "accept").values()
    )
    assert [f.hex() for f in sent[sender.address]] == list(
        _pinned("msg2", "confirm_responder", "manifest", "chunk", "end").values()
    )


def _frame(frame_type: int, payload: bytes) -> bytes:
    return bytes((0x01, frame_type)) + len(payload).to_bytes(4, "big") + payload


def _key_schedule() -> dict[str, bytes]:
    """Every vector, from README "Wire format" and the group's constants alone."""
    p, q, g = pake._P, pake._Q, pake._G
    m, n = pake._M, pake._N  # the initiator's and the responder's blinding elements

    def element(value: int) -> bytes:
        return value.to_bytes(384, "big")

    digest = hashlib.sha256(b"pcp/pake/password:" + PASSWORD).digest()
    w = 1 + int.from_bytes(digest, "big") % (q - 1)
    x = random.Random(INITIATOR_SEED).randrange(1, q)
    y = random.Random(RESPONDER_SEED).randrange(1, q)
    big_x = pow(g, x, p) * pow(m, w, p) % p
    big_y = pow(g, y, p) * pow(n, w, p) % p
    shared = pow(big_y * pow(n, q - w, p) % p, x, p)
    assert shared == pow(big_x * pow(m, q - w, p) % p, y, p)

    binding = BINDING.encode()
    msg1 = _frame(0x01, len(binding).to_bytes(2, "big") + binding + element(big_x))
    msg2 = _frame(0x02, element(big_y))
    h = hashlib.sha256()
    for part in (b"pcp/pake/v1", binding, element(big_x), element(big_y), element(shared),
                 w.to_bytes(32, "big")):
        h.update(len(part).to_bytes(8, "big") + part)
    master = h.digest()

    prk = hmac.new(b"pcp/keys/v1", master, hashlib.sha256).digest()

    def hkdf(label: bytes) -> bytes:
        return hmac.new(prk, label + b"\x01", hashlib.sha256).digest()

    k_init, k_resp = hkdf(b"pcp/send/initiator"), hkdf(b"pcp/send/responder")
    k_confirm = hkdf(b"pcp/confirm")

    def confirm(label: bytes) -> bytes:
        return _frame(0x03, hmac.new(k_confirm, label + msg1 + msg2, hashlib.sha256).digest())

    def sealed(key: bytes, direction: bytes, counter: int, plaintext: bytes) -> bytes:
        nonce = bytes(4) + counter.to_bytes(8, "big")
        return _frame(0x10, ChaCha20Poly1305(key).encrypt(nonce, plaintext, direction))

    manifest = (
        b'{"chunk":65536,"name":"' + BODY_NAME.encode() + b'","sha256":"'
        + hashlib.sha256(BODY).hexdigest().encode() + b'","size":'
        + str(len(BODY)).encode() + b"}"
    )
    from_responder = [b"\x01" + manifest, b"\x04" + bytes(8) + BODY, b"\x05"]
    manifest, chunk, end = (
        sealed(k_resp, b"pcp/send/responder", counter, plaintext)
        for counter, plaintext in enumerate(from_responder)
    )
    return {
        "msg1": msg1,
        "msg2": msg2,
        "master": master,
        "k_send_initiator": k_init,
        "k_send_responder": k_resp,
        "k_confirm": k_confirm,
        "confirm_initiator": confirm(b"confirm/initiator"),
        "confirm_responder": confirm(b"confirm/responder"),
        "manifest": manifest,
        "accept": sealed(k_init, b"pcp/send/initiator", 0, b"\x02"),
        "chunk": chunk,
        "end": end,
    }


def test_the_key_schedule_as_documented_gives_the_vectors():
    assert {name: value.hex() for name, value in _key_schedule().items()} == VECTORS

"""Balanced password-authenticated key exchange (SPAKE2-style).

Both parties blind an ephemeral Diffie-Hellman share with a password-
derived exponent of a fixed public group element (one element per role),
exchange the blinded shares, unblind, and hash the shared value together
with the session identity into a master secret. An eavesdropper — or an
active party holding the wrong password — learns nothing that allows
offline guessing; every connection buys exactly one online guess, and a
wrong guess only shows up when key confirmation fails.

The group is a 3072-bit prime-field Schnorr group (256-bit prime-order
subgroup) from the published DSA-style parameter sets; the two blinding
elements are nothing-up-my-sleeve values hashed from fixed seed strings
into the subgroup, pinned here as literals (a test re-derives them).
All five exponentiations of a side (G**x, blind**w, peer_blind**(q - w),
the subgroup check and the shared secret) go through _pow. When
OpenSSL's libcrypto.so.3 loads (the library CPython's own ssl and hashlib
use) that is BN_mod_exp_mont_consttime, a constant-time exponentiation,
with one Montgomery context for P built at import, so neither the secret
scalar x nor the password scalar w goes through a variable-time pow there.
It replaced libgmp.so.10's mpz_powm_sec: for a 256-bit exponent on a
2-vCPU x86-64 VM a call takes 0.86-1.14 ms against 1.26-1.62 ms on libgmp
and 8-12 ms on the built-in pow, and a fresh handshake pair 10.8-11.6 ms
against 14.8-15.7 ms. Without the library, _pow is the built-in pow
modulo P; both give the same integers.

Exponentiations that do not depend on each other overlap on the kernel's
worker thread (pcp.kernel.overlap): a party's construction computes G**x
there while the caller computes blind**w, and derive computes the shared
secret there, unblinding first, while the caller runs the subgroup check.
derive checks the peer element's length and range before either starts.
Each job looks _pow up when it runs, so a replaced _pow reaches it too.

Two of each side's three fixed-base exponentiations depend on the password
alone: its own blinding term blind**w and the peer's unblinding term
peer_blind**(q - w). A PakePassword computes each once, on first use, and
every party built from it shares them, so a session that runs many
handshakes (a sender taking several dialers, a receiver dialing several
candidates) pays them once. They live only as long as that object, which
a session owns; nothing is cached at module level, and a party built from
plain bytes gets a fresh PakePassword that shares nothing.
"""

from __future__ import annotations

import ctypes
import hashlib
import random
from collections.abc import Callable

from .errors import InvalidArgument, ProtocolError
from .kernel import overlap


ROLE_INITIATOR = "initiator"
ROLE_RESPONDER = "responder"

# 3072-bit prime p with 256-bit prime q dividing p-1, generator g of the
# q-order subgroup (well-known DSA-style parameter set).
_P = int(
    "90066455B5CFC38F9CAA4A48B4281F292C260FEEF01FD61037E56258A7795A1C"
    "7AD46076982CE6BB956936C6AB4DCFE05E6784586940CA544B9B2140E1EB523F"
    "009D20A7E7880E4E5BFA690F1B9004A27811CD9904AF70420EEFD6EA11EF7DA1"
    "29F58835FF56B89FAA637BC9AC2EFAAB903402229F491D8D3485261CD068699B"
    "6BA58A1DDBBEF6DB51E8FE34E8A78E542D7BA351C21EA8D8F1D29F5D5D159394"
    "87E27F4416B0CA632C59EFD1B1EB66511A5A0FBF615B766C5862D0BD8A3FE7A0"
    "E0DA0FB2FE1FCB19E8F9996A8EA0FCCDE538175238FC8B0EE6F29AF7F642773E"
    "BE8CD5402415A01451A840476B2FCEB0E388D30D4B376C37FE401C2A2C2F941D"
    "AD179C540C1C8CE030D460C4D983BE9AB0B20F69144C1AE13F9383EA1C08504F"
    "B0BF321503EFE43488310DD8DC77EC5B8349B8BFE97C2C560EA878DE87C11E3D"
    "597F1FEA742D73EEC7F37BE43949EF1A0D15C3F3E3FC0A8335617055AC91328E"
    "C22B50FC15B941D3D1624CD88BC25F3E941FDDC6200689581BFEC416B4B2CB73",
    16,
)
_Q = int("CFA0478A54717B08CE64805B76E5B14249A77A4838469DF7F7DC987EFCCFB11D", 16)
_G = int(
    "5E5CBA992E0A680D885EB903AEA78E4A45A469103D448EDE3B7ACCC54D521E37"
    "F84A4BDD5B06B0970CC2D2BBB715F7B82846F9A0C393914C792E6A923E2117AB"
    "805276A975AADB5261D91673EA9AAFFEECBFA6183DFCB5D3B7332AA19275AFA1"
    "F8EC0B60FB6F66CC23AE4870791D5982AAD1AA9485FD8F4A60126FEB2CF05DB8"
    "A7F0F09B3397F3937F2E90B9E5B9C9B6EFEF642BC48351C46FB171B9BFA9EF17"
    "A961CE96C7E7A7CC3D3D03DFAD1078BA21DA425198F07D2481622BCE45969D9C"
    "4D6063D72AB7A0F08B2F49A7CC6AF335E08C4720E31476B67299E231F8BD90B3"
    "9AC3AE3BE0C6B6CACEF8289A2E2873D58E51E029CAFBD55E6841489AB66B5B4B"
    "9BA6E2F784660896AFF387D92844CCB8B69475496DE19DA2E58259B090489AC8"
    "E62363CDF82CFD8EF2A427ABCD65750B506F56DDE3B988567A88126B914D7828"
    "E2B63A6D7ED0747EC59E0E0A23CE7D8A74C1D2C2A7AFB6A29799620F00E11C33"
    "787F7DED3B30E1A22D09F1FBDA1ABBBFBF25CAE05A13F812E34563F99410E73B",
    16,
)
_COFACTOR = (_P - 1) // _Q

ELEMENT_LEN = (_P.bit_length() + 7) // 8  # 384 bytes


def _load_openssl_pow() -> Callable[[int, int], int] | None:
    """Bind libcrypto's BN_mod_exp_mont_consttime as a pow(base, exp, _P), or None.

    The library is opened by its soname: ctypes.util.find_library would
    start ldconfig in a child process at import. The Montgomery context
    for _P is built here, once. No call leaves the constant-time path:
    BN_bin2bn reads a magnitude, and every caller's arguments are non-negative.
    """
    try:
        crypto = ctypes.CDLL("libcrypto.so.3")
    except OSError:
        return None
    ptr, c_int = ctypes.c_void_p, ctypes.c_int

    def bind(name, restype, *argtypes):
        fn = getattr(crypto, name)
        fn.restype, fn.argtypes = restype, list(argtypes)
        return fn

    bin2bn = bind("BN_bin2bn", ptr, ctypes.c_char_p, c_int, ptr)
    bn2binpad = bind("BN_bn2binpad", c_int, ptr, ctypes.c_char_p, c_int)
    bn_new = bind("BN_new", ptr)
    clear_free = bind("BN_clear_free", None, ptr)
    ctx_new = bind("BN_CTX_new", ptr)
    ctx_free = bind("BN_CTX_free", None, ptr)
    mont_new = bind("BN_MONT_CTX_new", ptr)
    mont_set = bind("BN_MONT_CTX_set", c_int, ptr, ptr, ptr)
    exp_consttime = bind("BN_mod_exp_mont_consttime", c_int, ptr, ptr, ptr, ptr, ptr, ptr)

    def checked(value, call: str):
        if not value:
            raise RuntimeError(f"libcrypto {call} failed")
        return value

    def to_bn(value: int) -> int:
        raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
        return checked(bin2bn(raw, len(raw), None), "BN_bin2bn")

    # the modulus and its Montgomery context live as long as the process
    modulus, mont = to_bn(_P), checked(mont_new(), "BN_MONT_CTX_new")
    ctx = checked(ctx_new(), "BN_CTX_new")
    try:
        checked(mont_set(mont, modulus, ctx), "BN_MONT_CTX_set")
    finally:
        ctx_free(ctx)

    def openssl_pow(base: int, exp: int) -> int:
        # a BN_CTX of its own per call, so that threads may share the binding
        bns, ctx = [], None
        try:
            for value in (base, exp):
                bns.append(to_bn(value))
            bns.append(checked(bn_new(), "BN_new"))
            ctx = checked(ctx_new(), "BN_CTX_new")
            a, p, result = bns
            checked(exp_consttime(result, a, p, modulus, ctx, mont), "BN_mod_exp_mont_consttime")
            out = ctypes.create_string_buffer(ELEMENT_LEN)
            if bn2binpad(result, out, ELEMENT_LEN) != ELEMENT_LEN:
                raise RuntimeError("libcrypto BN_bn2binpad failed")
            return int.from_bytes(out.raw, "big")
        finally:
            ctx_free(ctx)
            for bn in bns:
                clear_free(bn)

    return openssl_pow


def _builtin_pow(base: int, exp: int) -> int:
    return pow(base, exp, _P)


_pow = _load_openssl_pow() or _builtin_pow


def _hash_to_subgroup(seed: bytes) -> int:
    """Map a public seed string into the q-order subgroup (no known dlog)."""
    blocks = []
    for counter in range(8):
        blocks.append(hashlib.sha512(seed + bytes([counter])).digest())
    candidate = int.from_bytes(b"".join(blocks), "big") % _P
    element = _pow(candidate, _COFACTOR)
    if element in (0, 1):
        raise AssertionError("degenerate blinding element; seed needs changing")
    return element


# _hash_to_subgroup(b"pcp pake blinding element M") and (... b"... N"),
# pinned so that no process start pays two 2816-bit exponentiations;
# tests/test_pake.py re-derives both.
_M = int(
    "40AD9C137A123F91931D5BEE7AEDCD0B074BD8F527014DFAA73B36EAD05F5CC0"
    "9252518C22F223A69CCD0B31DC5F035932E20BD573D40E028570EEEFCF0FB2EC"
    "0A508ADDC85EE04CCDC0E29300E624365F5BE73E16C3392ED34102FE7783F547"
    "BB8B3C97E907FE8CDBDA4E946D2C6E0BAB8C9F9889FD85F85145214A8A91D3EA"
    "622C4C402748A955E9578F838D3D7B0C10B42C450F7C1E598CB9AE87394FDB43"
    "D5FD10E515B82552159B5E613129383B3F57A04A6465FAA45F9478ABC46C4344"
    "A05D654221BFBB43FF225F02838828832E324BD6AF2A670A1B1E27977B2BA62D"
    "F1D6A1F6D5572C0AC48319200B5BC21A9103C79F3F8002B9C8CA1E2D6415887A"
    "9099302C6E67AF9988510D8C6250F049EFADF972C1DA7EE882918FD60B47F3BF"
    "CE46E159FCCC29005D93DFE6D14F4984C45707556429EB79FBBDEF316F0F9521"
    "1646D2DEEBBA64FEB81549BF7F326747D1FFBED9F6C7BA714801068AE5847401"
    "50AF08715212DACE1E1A923F8B1A418B3EE1FD12AAF15F38F1478CA48E519FBF",
    16,
)
_N = int(
    "7A84E7400DF7391C8E27EBD7C3CF1E6F6CC73AE4A5A45482E6FC1252456482E3"
    "B710842B5BB1954A61F76E6234730BDD2879912ECCCE9B1CA991381FA7E71A54"
    "69A30EF5E946045080D6FD0EF5FFBE7E6A06B5992D56E40D9F427C02EFDA6CD0"
    "67E99695ED2C2671C1360A1E0E7F2E49D3C0B7FCFFE43BE80B650D0D75394B08"
    "9C027443178045A63329C7908928D1749084ECE293B7EC4D5B81A0D5020D6A09"
    "D1F3394CAC2D3ACEFFB7C2B9451712C95D3263DE0C9703420287EC13B12AFDD4"
    "D080A5C69F78B455EEED75148A491D6CF5503C4230606099E16AB87713889000"
    "6B36ED9C761BF55BC967B81845AD8A7088813E75FC0E82CB3FA12B02D6604ED2"
    "56D9701CC0E3C419C80F3834E5E56812248035E5D39E86C9E79BEAB56D6ACD7C"
    "59A7431F0F0802DB7AF46A6CDBFA56BBA08DDC1948CF08A27B1971CC5C202E9E"
    "2AF43BD26F59D40EFD9672D67ED053E2A766FEA282D02B53959B8A3C9DAB539E"
    "B8FE79F9FA1BA4208C628E11AC8491E7D64716C4BB598A045D905ED57FB2CF9D",
    16,
)

def _password_scalar(password: bytes) -> int:
    digest = hashlib.sha256(b"pcp/pake/password:" + password).digest()
    return 1 + int.from_bytes(digest, "big") % (_Q - 1)


def encode_element(x: int) -> bytes:
    return x.to_bytes(ELEMENT_LEN, "big")


def _element_in_range(raw: bytes) -> int:
    """A peer's element as an integer, checked for length and range only."""
    if len(raw) != ELEMENT_LEN:
        raise ProtocolError(f"group element must be {ELEMENT_LEN} bytes, got {len(raw)}")
    value = int.from_bytes(raw, "big")
    if not 1 < value < _P - 1:
        raise ProtocolError("group element out of range")
    return value


def decode_element(raw: bytes) -> int:
    """Parse and validate a peer's group element; rejects out-of-group junk."""
    value = _element_in_range(raw)
    if _pow(value, _Q) != 1:
        raise ProtocolError("group element not in the prime-order subgroup")
    return value


_BLIND = {ROLE_INITIATOR: _M, ROLE_RESPONDER: _N}
_PEER_BLIND = {ROLE_INITIATOR: _N, ROLE_RESPONDER: _M}


class PakePassword:
    """The password-only values of the exchange, shared by one session's parties.

    Holds the password scalar w. blind(role) is blind**w for the role's own
    blinding element and unblind(role) is peer_blind**(q - w); each is
    computed on first use and kept for this object's lifetime.
    """

    def __init__(self, password: bytes):
        self._w = _password_scalar(password)
        self._powers: dict[tuple[int, int], int] = {}

    def _power(self, base: int, exp: int) -> int:
        key = (base, exp)
        if key not in self._powers:
            self._powers[key] = _pow(base, exp)
        return self._powers[key]

    def blind(self, role: str) -> int:
        return self._power(_BLIND[role], self._w)

    def unblind(self, role: str) -> int:
        return self._power(_PEER_BLIND[role], (_Q - self._w) % _Q)


class PakeParty:
    """One side of the exchange. Use message() then derive(peer_message).

    ``password`` is the passphrase bytes or a session's PakePassword; bytes
    are wrapped in a fresh PakePassword of this party's own.
    """

    def __init__(
        self,
        password: bytes | PakePassword,
        role: str,
        session_binding: str,
        rng: random.Random,
    ):
        if role not in (ROLE_INITIATOR, ROLE_RESPONDER):
            raise InvalidArgument(f"bad role {role!r}")
        if not isinstance(password, PakePassword):
            password = PakePassword(password)
        self.role = role
        self.session_binding = session_binding
        self._password = password
        self._x = rng.randrange(1, _Q)
        share, blind = overlap(lambda: _pow(_G, self._x), lambda: password.blind(role))
        self._element = share * blind % _P
        self._message = encode_element(self._element)

    def message(self) -> bytes:
        """Our blinded share, fixed-length encoded."""
        return self._message

    def derive(self, peer_message: bytes) -> bytes:
        """Unblind the peer's share and hash the transcript to a 32-byte master.

        The worker computes the shared secret while this thread runs the
        subgroup check; a peer element that fails the check raises here,
        and the shared secret computed for it is dropped.
        """
        peer_element = _element_in_range(peer_message)
        shared, _ = overlap(
            lambda: _pow(peer_element * self._password.unblind(self.role) % _P, self._x),
            lambda: decode_element(peer_message),
        )
        if self.role == ROLE_INITIATOR:
            msg_x, msg_y = self._message, peer_message
        else:
            msg_x, msg_y = peer_message, self._message
        h = hashlib.sha256()
        for part in (
            b"pcp/pake/v1",
            self.session_binding.encode("utf-8"),
            msg_x,
            msg_y,
            encode_element(shared),
            self._password._w.to_bytes(32, "big"),
        ):
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
        return h.digest()

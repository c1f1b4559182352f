"""Exception hierarchy shared across the protocol stack.

Everything raised on purpose by this package derives from PcpError, so
callers can catch one type at the CLI boundary. ValueError mixins keep
argument-validation errors compatible with plain ``except ValueError``.
"""


class PcpError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(PcpError, ValueError):
    """A caller violated a documented precondition."""


class PassphraseParseError(InvalidArgument):
    """Passphrase text could not be decoded against the wordlist."""


class BackendUnavailable(PcpError):
    """A discovery backend was used after being stopped."""


class DialError(PcpError):
    """The target peer is unreachable or not accepting connections."""


class ConnectionLost(PcpError):
    """The byte stream terminated abnormally (drop, partition, reset)."""


class ProtocolError(PcpError):
    """A peer sent a malformed or unexpected protocol message."""


class HandshakeTimeout(PcpError):
    """The key exchange did not complete within its deadline."""


class AuthenticationFailure(PcpError):
    """Key confirmation failed: the peers do not share the same secret."""


class DecryptError(PcpError):
    """An encrypted frame failed authentication or arrived out of order."""


class ChannelExhausted(PcpError):
    """The per-direction message counter reached its limit; no key reuse."""

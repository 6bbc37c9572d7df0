"""Exception types shared across the library, and the verifiers' rejection note."""


class VheError(Exception):
    """Base class for all library errors."""


class ParameterError(VheError, ValueError):
    """A parameter set is malformed or unsupported."""


class KeyMaterialError(VheError):
    """Required key material (rotation key, secret key, ...) is missing."""


class DecryptionFailureError(VheError):
    """Accumulated noise makes the decryption untrustworthy."""


class IdentifierReuseError(VheError):
    """An identifier was used to authenticate more than one datum."""


class LayoutError(VheError):
    """Data does not fit the slot layout an operation requires."""


class DegreeLimitError(VheError):
    """An encoding's degree would exceed the configured maximum."""


class StructureError(VheError):
    """A circuit or authentication object is structurally invalid."""


class ProtocolError(VheError):
    """An interactive session broke the expected message schedule."""


class SerializationError(VheError):
    """A byte container is malformed or has an unexpected type."""


def reject(reason: list | None, msg: str) -> bool:
    """A verifier's rejection: note `msg` in `reason` if the caller passed
    a list, and return False.  The note stays with the verifying side."""
    if reason is not None:
        reason.append(msg)
    return False

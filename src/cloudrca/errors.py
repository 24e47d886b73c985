"""Exception hierarchy shared across the framework."""


class CloudRcaError(Exception):
    """Base class for all framework errors."""


class ConfigurationError(CloudRcaError):
    """Bad or missing configuration (exhausted mock script, missing finalize, ...)."""


class TransportError(CloudRcaError):
    """Retriable transport-level failure when talking to a live endpoint."""


class ProtocolError(CloudRcaError):
    """A provider returned data violating the expected wire contract."""


class SnapshotKeyError(CloudRcaError):
    """A snapshot key was referenced but never issued by the store."""

    def __init__(self, key: str):
        super().__init__(f"unknown snapshot key: {key}")
        self.key = key

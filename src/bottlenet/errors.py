"""Exception types shared across the package."""


class BottlenetError(Exception):
    """Base class for all protocol and simulator errors."""


class InvalidRequest(BottlenetError):
    """A routing request that needs no discovery (e.g. route to self)."""


class WireOverflow(BottlenetError):
    """A field does not fit the wire format."""


class MalformedBottle(BottlenetError):
    """A bottle violates its structural invariants."""


class PreconditionViolation(BottlenetError):
    """An operation was called outside its contract."""


class UnknownNode(BottlenetError):
    pass


class UnknownEdge(BottlenetError):
    pass


class InvalidPath(BottlenetError):
    """A highlight path is not a path in the topology."""


class InvalidCount(BottlenetError):
    """Topology generator called with an unusable node count."""


class ConfigError(BottlenetError):
    """Scenario or topology file is malformed; message names file and field."""


class MalformedTrace(BottlenetError):
    """A JSONL trace line is not exactly one record; message names file and line."""


class MalformedRecord(MalformedTrace):
    """A trace record's field has a JSON type its use cannot take; message names the record."""

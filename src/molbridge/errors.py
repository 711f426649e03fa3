"""Exception types raised across the package.

Everything inherits from :class:`MolBridgeError` so callers (notably the
CLI) can catch library failures without swallowing genuine bugs.
"""


class MolBridgeError(Exception):
    """Base class for all library failures."""


# --- SMILES parsing -------------------------------------------------- #

class SmilesError(MolBridgeError, ValueError):
    """Malformed SMILES input. ``position`` is the offending string index."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)


class UnsupportedTokenError(SmilesError):
    """Token outside the documented SMILES subset."""


class UnclosedBranchError(SmilesError):
    """Branch parentheses do not balance."""


class UnmatchedRingBondError(SmilesError):
    """Ring-closure digits do not pair up, or pair up inconsistently."""


class AtomCapExceededError(SmilesError):
    """Molecule has more atoms than the per-drug cap allows."""


# --- numeric core ---------------------------------------------------- #

class ShapeMismatchError(MolBridgeError, ValueError):
    """Operands have incompatible shapes."""


class NonFiniteActivationError(MolBridgeError, FloatingPointError):
    """A forward pass produced NaN or Inf activations."""


# --- graph construction / model -------------------------------------- #

class SizeCapExceededError(MolBridgeError, ValueError):
    """A pair's joint graph, or the model a config implies, exceeds its cap."""


class ModelConfigError(MolBridgeError, ValueError):
    """A model dimension or the class count is below its least value."""


class HeadsNotDividingError(MolBridgeError, ValueError):
    """Attention head count does not divide the hidden dimension."""


class LabelOutOfRangeError(MolBridgeError, ValueError):
    """Class label outside [0, num_classes)."""


# --- metrics ---------------------------------------------------------- #

class IndexOutOfRangeError(MolBridgeError, ValueError):
    """Prediction or label index outside the class range."""


class EmptyMatrixError(MolBridgeError, ValueError):
    """Metrics requested on a confusion matrix with zero total count."""


class EmptySubsetError(MolBridgeError, ValueError):
    """Stratified metrics requested with an empty label subset."""


class NoMatchingSamplesError(MolBridgeError, ValueError):
    """No evaluated sample has a true label inside the requested subset."""


# --- datasets and splits ---------------------------------------------- #

class MissingColumnError(MolBridgeError, ValueError):
    """Dataset file header lacks a required column."""


class MalformedRowError(MolBridgeError, ValueError):
    """Input file is structurally broken (bytes that are not UTF-8, a CSV
    error, field count, label syntax)."""


class EmptyDatasetError(MolBridgeError, ValueError):
    """Dataset contains no usable samples; quarantined lists the rows set
    aside on the way, for the caller to report."""

    def __init__(self, message: str, quarantined=()):
        super().__init__(message)
        self.quarantined = list(quarantined)


class InsufficientDrugsError(MolBridgeError, ValueError):
    """Too few distinct drugs to build the requested inductive split."""


class EmptySplitError(MolBridgeError, ValueError):
    """A split that training needs has no rows."""


# --- analysis --------------------------------------------------------- #

class KExceedsEdgesError(MolBridgeError, ValueError):
    """Requested more top edges than cross-molecular entries exist."""


# --- checkpoints ------------------------------------------------------- #

class CheckpointError(MolBridgeError, ValueError):
    """Checkpoint file is corrupt or inconsistent with its header."""


class VersionMismatchError(CheckpointError):
    """Checkpoint was written by an incompatible format version."""


# --- training ---------------------------------------------------------- #

class TrainingAbortedError(MolBridgeError, RuntimeError):
    """Training stopped because the loss or activations went non-finite."""

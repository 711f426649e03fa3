"""Drug pair interaction event prediction on joint molecular graphs.

The public names load their modules on first use (PEP 562), so
``import molbridge`` loads no numpy and each command of the command
line imports only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The thread-count variables of the BLAS builds numpy may load. The
# command line sets each one that is unset or empty to 1 before numpy
# loads (see __main__.py); importing the package changes no variable.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# public name -> "module.attribute"
_PUBLIC = {
    "DDISample": "data.DDISample", "LoadResult": "data.LoadResult",
    "load_dataset": "data.load_dataset",
    "MolBridgeError": "errors.MolBridgeError",
    "ModelConfig": "model.ModelConfig", "ModelParams": "model.ModelParams",
    "init_params": "model.init_params", "predict": "model.predict",
    "FeaturedGraph": "smiles.FeaturedGraph", "Molecule": "smiles.Molecule",
    "featurize": "smiles.featurize", "parse_smiles": "smiles.parse_smiles",
    "SplitPlan": "splits.SplitPlan", "make_splits": "splits.make_splits",
    "RunRecord": "train.RunRecord", "TrainConfig": "train.TrainConfig",
    "train_model": "train.train",
}

__all__ = sorted(_PUBLIC)


def __getattr__(name: str):
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attribute = _PUBLIC[name].partition(".")
    value = getattr(importlib.import_module(f".{module}", __name__), attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC})

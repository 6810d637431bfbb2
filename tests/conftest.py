import pathlib
import sys
import warnings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

# On a failing example the hypothesis plugin imports libcst, and the body of
# libcst.metadata.type_inference_provider warns that
# mypy_extensions.TypedDict is deprecated.  Under -W error that warning ends
# the session at the first failing property test.  Imported once here, with
# the warning ignored, the module stays in sys.modules and its body never
# runs again; every other warning keeps the filters it is given.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst.metadata.type_inference_provider  # noqa: F401
    except ImportError:
        pass

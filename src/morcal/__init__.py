"""Non-intrusive model-order reduction with trajectory-fit operator calibration.

The package reduces a 1D heated-reactor model through proper orthogonal
decomposition, samples its temperature nonlinearity with discrete empirical
interpolation, infers reduced operators by regularised regression on the
exact right-hand side at the snapshots, and then refines those operators by minimising the
time-stepped trajectory mismatch with Levenberg-Marquardt.
"""

# Each module's ``__all__`` is the one list of its public names; the package
# re-exports them.  The modules are bound first because the star import of
# ``morcal.calibrate`` rebinds ``morcal.calibrate`` to the function.
from morcal import calibrate as _calibrate
from morcal import config as _config
from morcal import deim as _deim
from morcal import errors as _errors
from morcal import fom as _fom
from morcal import opinf as _opinf
from morcal import pod as _pod
from morcal import rom as _rom
from morcal import snapshots as _snapshots
from morcal.calibrate import *  # noqa: F401,F403
from morcal.config import *  # noqa: F401,F403
from morcal.deim import *  # noqa: F401,F403
from morcal.errors import *  # noqa: F401,F403
from morcal.fom import *  # noqa: F401,F403
from morcal.opinf import *  # noqa: F401,F403
from morcal.pod import *  # noqa: F401,F403
from morcal.rom import *  # noqa: F401,F403
from morcal.snapshots import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *_calibrate.__all__, *_config.__all__, *_deim.__all__, *_errors.__all__, *_fom.__all__,
    *_opinf.__all__, *_pod.__all__, *_rom.__all__, *_snapshots.__all__,
]

"""Build hook for the optional compiled demodulation kernel.

The package is fully functional without the extension (a numpy fallback
is selected at import time); ``optional=True`` keeps a missing C compiler
from failing the build.  -ffp-contract=off keeps the compiled kernel
bit-identical to the numpy fallback (no FMA contraction in the decision
arithmetic).
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "fso_adapt._psk_kernel",
            ["src/fso_adapt/_psk_kernel.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)

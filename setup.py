"""Legacy setup shim.

The execution environment has no network access and no ``wheel``
package, so PEP 660 editable installs (which need bdist_wheel) fail.
Keeping a setup.py lets ``pip install -e .`` fall back to the classic
``setup.py develop`` path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Uncertainty-aware query execution time prediction "
        "(Wu et al., VLDB 2014) — full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
    # The package itself needs numpy only. The tests compare against
    # scipy (erfinv, nnls, stats), and e2ebench's quality check uses
    # scipy.stats.spearmanr.
    extras_require={"test": ["scipy>=1.9", "pytest", "hypothesis"]},
)

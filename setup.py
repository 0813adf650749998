from setuptools import find_packages, setup

setup(
    name="pag-repro",
    version="1.0.0",
    description=(
        "Reproduction of 'PAG: Private and Accountable Gossip' "
        "(ICDCS 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # The simulator is dependency-free by design; everything below is
    # optional acceleration.
    install_requires=[],
    extras_require={
        # GMP-backed modular arithmetic: ~10x faster homomorphic
        # hashing at the paper's 512-bit sizes (auto-detected at
        # import; see PERFORMANCE.md).
        "fast": ["gmpy2>=2.1"],
        # numpy carries the population tier (repro.sim.population and
        # its columnar spill); nothing else imports it.
        "analysis": ["numpy>=1.24"],
        "dev": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": ["repro = repro.cli:main"],
    },
)

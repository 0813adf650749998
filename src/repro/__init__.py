"""Reproduction of "PAG: Private and Accountable Gossip" (ICDCS 2016).

PAG (Decouchant, Ben Mokhtar, Petit, Quéma) is the first gossip
dissemination protocol that is simultaneously accountable (selfish
nodes are provably convicted) and partially privacy-preserving
(monitors verify forwarding through homomorphic hashes without learning
update contents or building interest graphs).

Package map:

* :mod:`repro.core` — the protocol itself (start with
  :class:`repro.core.PagSession`);
* :mod:`repro.scenarios` — the declarative registry of the paper's
  evaluation matrix (start with :func:`repro.api.run_scenario`);
* :mod:`repro.crypto` — primes, RSA, the homomorphic hash;
* :mod:`repro.sim` — the round-synchronous simulation substrate;
* :mod:`repro.membership`, :mod:`repro.gossip`, :mod:`repro.streaming`
  — membership views, dissemination, and the video application layer;
* :mod:`repro.baselines` — AcTinG and RAC, the paper's comparators;
* :mod:`repro.adversary` — selfish strategies, coalitions, the global
  observer;
* :mod:`repro.analysis` — bandwidth/cost/privacy models and the Nash
  check;
* :mod:`repro.verifier` — the Dolev-Yao engine reproducing the ProVerif
  analysis.

See README.md for the CLI, the scenario registry and the package
layout; ``repro run --scenario NAME`` prints each figure and table next
to the paper's values.
"""

from __future__ import annotations

__version__ = "1.0.0"

__all__ = ["__version__"]

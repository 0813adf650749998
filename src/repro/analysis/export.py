"""Export every regenerated table and figure as CSV/JSON artefacts.

`python -m repro export --out results/` writes one file per experiment
so the series can be re-plotted or diffed against other runs without
re-running the simulations embedded in the benchmark suite.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List

from repro.analysis.bandwidth import figure8_series, figure9_series
from repro.analysis.costs import table1_rows
from repro.analysis.privacy import figure10_series
from repro.analysis.quality import table2

__all__ = ["export_all", "EXPORTERS"]


def _write_csv(path: Path, header: List[str], rows: List[List]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def export_fig8(out_dir: Path) -> Path:
    rows = [[kb, round(kbps, 1)] for kb, kbps in figure8_series()]
    path = out_dir / "fig8_update_size.csv"
    _write_csv(path, ["update_kbit", "bandwidth_kbps"], rows)
    return path


def export_fig9(out_dir: Path) -> Path:
    rows = [
        [n, round(pag, 1), round(acting, 1)]
        for n, pag, acting in figure9_series()
    ]
    path = out_dir / "fig9_scalability.csv"
    _write_csv(path, ["nodes", "pag_kbps", "acting_kbps"], rows)
    return path


def export_fig10(out_dir: Path) -> Path:
    rows = [
        [
            p.attacker_fraction,
            round(p.acting, 4),
            round(p.pag_3_monitors, 4),
            round(p.pag_5_monitors, 4),
            round(p.theoretical_minimum, 4),
        ]
        for p in figure10_series()
    ]
    path = out_dir / "fig10_coalitions.csv"
    _write_csv(
        path,
        ["attacker_fraction", "acting", "pag_3", "pag_5", "minimum"],
        rows,
    )
    return path


def export_table1(out_dir: Path) -> Path:
    rows = [
        [
            r.quality,
            r.payload_kbps,
            r.rsa_signatures_per_s,
            round(r.homomorphic_hashes_per_s, 1),
        ]
        for r in table1_rows()
    ]
    path = out_dir / "table1_crypto_costs.csv"
    _write_csv(
        path,
        ["quality", "payload_kbps", "signatures_per_s", "hashes_per_s"],
        rows,
    )
    return path


def export_table2(out_dir: Path) -> Path:
    payload = {
        protocol: [
            {
                "link": cell.link,
                "quality": cell.quality,
                "used_kbps": (
                    round(cell.used_kbps, 1)
                    if cell.used_kbps is not None
                    else None
                ),
            }
            for cell in cells
        ]
        for protocol, cells in table2().items()
    }
    path = out_dir / "table2_video_quality.json"
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False))
    return path


EXPORTERS = {
    "fig8": export_fig8,
    "fig9": export_fig9,
    "fig10": export_fig10,
    "table1": export_table1,
    "table2": export_table2,
}


def export_all(out_dir: str | Path) -> Dict[str, Path]:
    """Write every artefact; returns experiment id -> file path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return {name: exporter(out) for name, exporter in EXPORTERS.items()}

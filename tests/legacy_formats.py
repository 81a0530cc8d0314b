"""Writers for the tests.

Straightforward reference versions of the dataset writers and the value
block renderer: one json.dumps per sample dict, csv.writer with one float()
per cell, and per-cell f-strings padded with ljust/rjust. The package's
templated versions must produce the same bytes.

A writer of the load-CSV format, which the package only reads: the tests
write a profile and check that the package reads back exactly what was
written.

``written`` runs the package's own dataset writer into memory, so the
tests can compare its texts with the reference writers', and ``from_texts``
loads such texts as the loader reads the files.

``dataset_of`` builds a Dataset from Sample objects, for the tests that make
one by hand, and ``samples`` turns a Dataset back into its Sample objects.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from gridsigma.scenario import (
    ANOMALY, STD_FLOOR, Dataset, compute_stats, dataset_from_files, write_dataset,
    zscores,
)

_COLUMNS = {
    "value": ("value",),
    "mean_std_value": ("value", "mean", "std"),
    "mean_std_value_z": ("value", "mean", "std", "|z|"),
    "z_only": ("|z|",),
}
_GROUP_TITLES = {
    "p_inj": ("P", "active power injections"),
    "q_inj": ("Q", "reactive power injections"),
    "p_flow": ("Pf", "active line flows"),
    "q_flow": ("Qf", "reactive line flows"),
    "v_mag": ("V", "voltage magnitudes"),
}


def written(ds) -> tuple[str, str]:
    """The dataset.jsonl and features.csv texts that scenario.write_dataset
    writes for ds."""
    jsonl, rows = io.BytesIO(), io.BytesIO()
    write_dataset(ds, jsonl, rows)
    return jsonl.getvalue().decode("utf-8"), rows.getvalue().decode("utf-8")


def from_texts(jsonl: str, stats_text: str, meta_text: str):
    """dataset_from_files with dataset.jsonl's text read line by line, as the
    loader reads its file."""
    return dataset_from_files(io.StringIO(jsonl), stats_text, meta_text)


def samples(ds) -> tuple:
    """Every sample of ds, as Dataset.by_id builds it."""
    return tuple(map(ds.by_id, range(len(ds.features))))


def dataset_of(samples, layout, splits=None, stats=None, master_seed=0) -> Dataset:
    """A Dataset whose row i holds samples[i] (its id is not read). splits
    default to every row in train, and stats to compute_stats over the train
    split. Nothing is checked: a test may build what the loader refuses."""
    samples = list(samples)
    n = len(samples)

    def column(values, dtype=float):
        array = np.array(values, dtype=dtype)
        array.flags.writeable = False
        return array

    features = column([s.features for s in samples]).reshape(n, len(layout))
    if splits is None:
        splits = {"train": range(n), "validation": (), "test": ()}
    splits = {name: column(list(ids), np.int64) for name, ids in splits.items()}
    return Dataset(
        features=features,
        hours=column([s.hour for s in samples], np.int64),
        anomalous=column([s.label == ANOMALY for s in samples], bool),
        injected=column([i for s in samples for i in s.injected], np.int32),
        deltas=column([d for s in samples for d in s.deltas]),
        ends=column(np.cumsum([0] + [len(s.injected) for s in samples]), np.int64),
        splits=splits,
        layout=layout,
        stats=compute_stats(features, splits["train"]) if stats is None else stats,
        master_seed=master_seed,
    )


def dataset_to_jsonl(ds) -> str:
    return "".join(
        json.dumps(
            {
                "id": s.id,
                "hour": s.hour,
                "label": s.label,
                "injected": list(s.injected),
                "deltas": list(s.deltas),
                "features": [float(v) for v in s.features],
            },
            separators=(",", ":"),
        )
        + "\n"
        for s in samples(ds)
    )


def features_to_csv(ds) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "hour", "label"] + ds.layout.names())
    for s in samples(ds):
        writer.writerow([s.id, s.hour, s.label] + [repr(float(v)) for v in s.features])
    return out.getvalue()


def render_value_block(values, stats, layout, variant, decimals=4) -> str:
    columns = _COLUMNS[variant]
    cell_sources = {
        "value": values,
        "mean": stats.mean,
        "std": np.maximum(stats.std, STD_FLOOR),
        "|z|": np.abs(zscores(values, stats)),
    }
    groups: list[tuple[str, list[int]]] = []
    for i, entry in enumerate(layout.entries):
        if groups and groups[-1][0] == entry.kind:
            groups[-1][1].append(i)
        else:
            groups.append((entry.kind, [i]))
    name_width = max(len("sensor"), max(len(e.name) for e in layout.entries))
    col_cells = {
        c: [f"{cell_sources[c][i]:.{decimals}f}" for i in range(len(layout))]
        for c in columns
    }
    col_width = {c: max(len(c), max(len(v) for v in col_cells[c])) for c in columns}
    lines: list[str] = []
    for gi, (kind, indices) in enumerate(groups):
        tag, title = _GROUP_TITLES[kind]
        if gi > 0:
            lines.append("")
        lines.append(f"[{tag}] {title}")
        header = "sensor".ljust(name_width)
        for c in columns:
            header += "  " + c.rjust(col_width[c])
        lines.append(header)
        for i in indices:
            row = layout.entries[i].name.ljust(name_width)
            for c in columns:
                row += "  " + col_cells[c][i].rjust(col_width[c])
            lines.append(row)
    return "\n".join(lines)


def export_load_csv(profile, bus_ids: list[int]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(bus_ids)
    for row in profile.scale:
        writer.writerow([repr(float(v)) for v in row])
    return out.getvalue()

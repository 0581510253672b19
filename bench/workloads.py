"""Benchmark workloads: seeded inputs, pinned references and output checks.

Every reference here is pinned in this file and none is computed by the
package under test:

* the census counts of the paper's 6x6 census;
* the class verdicts of the reference pictures (acceptance criterion 1);
* for block grids, the block-wise AND of the block verdicts (matching never
  crosses a block seam, so DC, DQ and DN are the AND; DW matched it on every
  grid these generators make);
* greedy neutralization traces, pinned per block; the trace of a block grid
  is their merge in the greedy (left, top, right, bottom) order, and a DN
  member's trace has exactly rows*cols/4 steps;
* matching-graph circuits: they partition the cells, double_noose(h) has a
  longest circuit of 4 + 8h, and fig3_right / fig5_left have the circuit
  lengths stated in the paper.
"""

from __future__ import annotations

import heapq
import json
import os
import random
from collections import Counter
from typing import Optional

CENSUS_COUNTS = {"dc": 5403, "dq": 3547, "dn": 3545, "dw": 21}
CENSUS_SIZE = (6, 6)

# Reference pictures, as printed in the paper.
BLOCKS = {
    "fig1_left": "aabb\naabb\nccdd\nccdd",
    "fig2": "aabb\nabab\ncdcd\nccdd",
    "fig3_left": "abab\ncabd\nacdb\ncdcd",
    "fig3_right": "abababab\ncabdcabd\nacdabcdb\ncdaabbcd\n"
    "abccddab\ncabcdabd\nacdbacdb\ncdcdcdcd",
    "fig5_left": "aabbaabb\nabaabbab\ncdacdbcd\ncabdcabd\n"
    "acdbacdb\nabcabdab\ncdccddcd\nccddccdd",
    "fig5_right": "aababb\nabacdb\ncdcabd\nacdbab\ncabdcd\nccdcdd",
    "p_N": "aabb\nccdd",
    "ab_cd": "ab\ncd",
}

# (in_dc, in_dq, in_dn, in_dw); acceptance criterion 1, plus the base rectangle.
VERDICTS = {
    "fig1_left": (True, True, True, True),
    "p_N": (True, True, True, False),
    "fig2": (True, True, True, False),
    "fig5_left": (True, True, False, False),
    "fig5_right": (True, True, False, False),
    "fig3_left": (True, False, False, False),
    "fig3_right": (True, False, False, False),
    "ab_cd": (True, True, True, True),
}
CLASS_KEYS = ("in_dc", "in_dq", "in_dn", "in_dw")

# Greedy neutralization trace of each block as (top, left, bottom, right),
# all with index 1; golden values of the greedy order at the time the
# benchmark was defined.
GREEDY_TRACES = {
    "fig1_left": ((2, 2, 3, 3), (2, 1, 3, 4), (1, 2, 4, 3), (1, 1, 4, 4)),
    "fig2": ((2, 1, 3, 2), (2, 3, 3, 4), (1, 2, 4, 3), (1, 1, 4, 4)),
    "fig3_left": ((2, 2, 3, 3),),
    "fig3_right": (
        (2, 2, 3, 3), (6, 2, 7, 3), (4, 4, 5, 5), (4, 3, 5, 6),
        (3, 4, 6, 5), (2, 6, 3, 7), (6, 6, 7, 7),
    ),
    "fig5_left": (
        (2, 1, 3, 2), (6, 1, 7, 2), (4, 2, 5, 3), (2, 4, 3, 5),
        (6, 4, 7, 5), (4, 6, 5, 7), (2, 7, 3, 8), (6, 7, 7, 8),
    ),
    "fig5_right": ((2, 1, 3, 2), (5, 2, 6, 3), (1, 4, 2, 5), (4, 5, 5, 6)),
    "p_N": ((1, 2, 2, 3), (1, 1, 2, 4)),
    "ab_cd": ((1, 1, 2, 2),),
}

# Circuit lengths: fig3_right has one circuit of 36 and seven rectangles;
# fig5_left is quaternate, so its 64 cells make 16 rectangles.
CIRCUIT_LENGTHS = {"fig3_right": (36,) + (4,) * 7, "fig5_left": (4,) * 16}

DOUBLE_NOOSE_BASE = ("aaabbb", "cabdab", "acdbcd", "cccddd")

# Why each workload exists.
WORKLOADS = {
    "census-6x6": "dyck2d census --rows 6 --cols 6: every decider on all 5403 6x6 "
    "crosswords, where per-call overhead dominates; the paper's census and headline number",
    "blocks-classify": "dyck2d classify then neutralize on seeded 8x8..16x16 block grids, "
    "2x2m strips and the reference pictures: how DN and DW scale on single large pictures",
    "graph-export": "dyck2d graph --format dot|json on double_noose(h), h evenly over "
    "25..250, and fig3_right/fig5_left grids: export over long circuits; DN and DW never run",
}

# For each layer: the end-to-end metric a change in it should move on each
# workload, and the workloads on which it is predicted to move nothing.
LAYERS = {
    "neutralize": (
        {"census-6x6": "ops_per_s (greedy DN is about 45% of the census)",
         "blocks-classify": "latency_p90_ms"},
        ["graph-export"],
    ),
    "wellnest": (
        {"census-6x6": "ops_per_s and peak_rss_mb (cold DW and its memo)",
         "blocks-classify": "latency_p90_ms"},
        ["graph-export"],
    ),
    "grid": (
        {"census-6x6": "ops_per_s (simplot_partition, subpicture)",
         "blocks-classify": "latency_p90_ms (simplot_partition, subpicture)",
         "graph-export": "latency_p50_ms (parse_picture)"},
        [],
    ),
    "crossword": (
        {"graph-export": "latency_p50_ms and latency_p90_ms",
         "census-6x6": "ops_per_s (in_DC runs several times per picture)"},
        ["blocks-classify (about 1% of its traced time)"],
    ),
    "dyck1d": (
        {"graph-export": "latency_p50_ms and latency_p90_ms",
         "census-6x6": "ops_per_s (the 1D pass under every crossword call)"},
        ["blocks-classify (about 2% of its traced time)"],
    ),
    "lab": (
        {"census-6x6": "ops_per_s (enumerate_dc, classify)"},
        ["graph-export"],
    ),
    "cli": (
        {"graph-export": "setup_s and latency_p50_ms"},
        ["census-6x6 (one cli call per census)"],
    ),
}


def predictions(workload: str) -> list[str]:
    """One line per layer: what it should move on this workload, or that it should not."""
    lines = []
    for layer, (moves, unchanged) in LAYERS.items():
        if workload in moves:
            lines.append(f"{layer} should move {moves[workload]}")
        elif any(u.split()[0] == workload for u in unchanged):
            lines.append(f"{layer} predicted unchanged")
    return lines


# Operations a traced run makes, and after which an untraced run reads its
# peak RSS: fixed, so that call counts repeat exactly and memory does not grow
# with the number of operations a faster program fits in the time.
FIXED_OPS = {"census-6x6": 1, "blocks-classify": 80, "graph-export": 136}

# A census fills the module-global DW memo, so a second census in the same
# process would be a warm one: these workloads make one op per run, cold.
ONE_OP_PER_RUN = {"census-6x6"}

# Pictures generated per run; a run that gets through all of them starts
# over from the first.
POOL_CYCLES = {"blocks-classify": 24, "graph-export": 16}


# -- picture construction ------------------------------------------------------


def _block_rows(name: str) -> list[str]:
    return BLOCKS[name].split("\n")


def compose(layout: list[list[str]]) -> str:
    """Picture text of a grid of named blocks (equal heights per block row)."""
    lines = []
    for block_row in layout:
        parts = [_block_rows(name) for name in block_row]
        for r in range(len(parts[0])):
            lines.append("".join(part[r] for part in parts))
    return "\n".join(lines)


def double_noose_text(h: int) -> str:
    """h base blocks stacked; each seam relabelled so the long circuits merge."""
    rows = [list(r) for _ in range(h) for r in DOUBLE_NOOSE_BASE]
    for step in range(1, h):
        seam = 4 * step - 1  # last row of a block, 0-based
        rows[seam][0], rows[seam][5] = "a", "b"
        rows[seam + 1][0], rows[seam + 1][5] = "c", "d"
    return "\n".join("".join(r) for r in rows)


def _offsets(layout: list[list[str]]):
    top = 0
    for block_row in layout:
        left = 0
        for name in block_row:
            yield name, top, left
            left += len(_block_rows(name)[0])
        top += len(_block_rows(block_row[0]))


def block_verdict(layout: list[list[str]]) -> list[bool]:
    names = [name for row in layout for name in row]
    return [all(VERDICTS[n][f] for n in names) for f in range(4)]


def merged_trace(layout: list[list[str]]) -> list[tuple[int, int, int, int]]:
    """Greedy trace of a block grid from the pinned per-block traces.

    Greedy applies the least redex in (left, top, right, bottom) order.  Blocks
    do not interact, so each block follows its own greedy trace and the grid
    takes, at each step, the block whose next redex is least.
    """
    queues = []
    for name, top, left in _offsets(layout):
        queues.append([(t + top, l + left, b + top, r + left) for t, l, b, r in GREEDY_TRACES[name]])
    heap = [((q[0][1], q[0][0], q[0][3], q[0][2]), n, 0) for n, q in enumerate(queues)]
    heapq.heapify(heap)
    out = []
    while heap:
        _, n, step = heapq.heappop(heap)
        out.append(queues[n][step])
        if step + 1 < len(queues[n]):
            t, l, b, r = queues[n][step + 1]
            heapq.heappush(heap, ((l, t, r, b), n, step + 1))
    return out


def trace_json(trace) -> str:
    return json.dumps(
        [{"domain": list(d), "index": 1, "step_number": n} for n, d in enumerate(trace, start=1)]
    )


# -- workload generation -------------------------------------------------------

_SIDES = (2, 3, 4)  # 4x4 blocks per side: 8x8 to 16x16 cells
_STRIP_HALF_WIDTHS = (8, 12, 16)  # 2 x 2m strips
_NOOSE_STEPS = 12
_GRAPH_GRID_SHAPES = ((1, 1), (2, 2), (3, 3), (1, 3), (3, 1))  # 8x8 blocks
_FIXTURE_PICTURES = ("fig1_left", "p_N", "fig2", "fig5_left", "fig5_right", "fig3_left", "fig3_right")


def _grid_layout(rng: random.Random, rows: int, cols: int, kind: str) -> list[list[str]]:
    """A rows x cols grid of 4x4 blocks whose block-wise class is kind."""
    allowed = {"dw": ["fig1_left"], "dn": ["fig1_left", "fig2"], "dc": ["fig1_left", "fig2", "fig3_left"]}[kind]
    layout = [[rng.choice(allowed) for _ in range(cols)] for _ in range(rows)]
    layout[rng.randrange(rows)][rng.randrange(cols)] = allowed[-1]
    return layout


def _strip_layout(rng: random.Random, half_width: int, kind: str) -> list[list[str]]:
    """A 2 x 2m strip of ab/cd (2 wide) and, for kind dn, p_N (4 wide) blocks."""
    n_pn = rng.randint(1, half_width // 2) if kind == "dn" else 0
    blocks = ["p_N"] * n_pn + ["ab_cd"] * (half_width - 2 * n_pn)
    rng.shuffle(blocks)
    return [blocks]


def _blocks_cycle(rng: random.Random) -> list[tuple[str, list[list[str]]]]:
    pictures = [
        (f"grid{r}x{c}-{kind}", _grid_layout(rng, r, c, kind))
        for r in _SIDES for c in _SIDES for kind in ("dw", "dn", "dc")
    ]
    pictures += [
        (f"strip{m}-{kind}", _strip_layout(rng, m, kind))
        for m in _STRIP_HALF_WIDTHS for kind in ("dw", "dn")
    ]
    pictures += [(name, [[name]]) for name in _FIXTURE_PICTURES]
    rng.shuffle(pictures)
    return pictures


def _graph_cycle(rng: random.Random) -> list[tuple[str, dict]]:
    # Twelve double nooses, spread evenly over h = 25..250 with a small seeded
    # jitter, make up most of the ops: the median op falls among them and
    # each cycle has nearly the same mix, whatever the seed.
    pictures = []
    for i in range(_NOOSE_STEPS):
        h = min(250, max(25, 25 + round(225 * i / (_NOOSE_STEPS - 1)) + rng.randint(-3, 3)))
        pictures.append((f"noose{h}", {"noose": h}))
    for r, c in _GRAPH_GRID_SHAPES:
        layout = [[rng.choice(("fig3_right", "fig5_left")) for _ in range(c)] for _ in range(r)]
        pictures.append((f"grid{r}x{c}", {"layout": layout}))
    rng.shuffle(pictures)
    return pictures


def generate(workload: str, seed: int, workdir: str) -> str:
    """Write the run's pictures and manifest under workdir; return the manifest path."""
    rng = random.Random(f"{workload}/{seed}")
    os.makedirs(workdir, exist_ok=True)
    ops: list[dict] = []
    paths: list[str] = []

    def add_picture(text: str) -> str:
        path = os.path.join(workdir, f"p{len(paths):05d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        paths.append(path)
        return path

    if workload == "census-6x6":
        rows, cols = CENSUS_SIZE
        ops.append({"kind": "census", "argv": ["census", "--rows", str(rows), "--cols", str(cols)],
                    "spec": {}, "units": CENSUS_COUNTS["dc"]})
    elif workload == "blocks-classify":
        for _ in range(POOL_CYCLES[workload]):
            for label, layout in _blocks_cycle(rng):
                path = add_picture(compose(layout))
                for verb in ("classify", "neutralize"):
                    ops.append({"kind": verb, "argv": [verb, path], "label": label,
                                "spec": {"layout": layout}, "units": 1})
    elif workload == "graph-export":
        for _ in range(POOL_CYCLES[workload]):
            for label, spec in _graph_cycle(rng):
                text = double_noose_text(spec["noose"]) if "noose" in spec else compose(spec["layout"])
                path = add_picture(text)
                formats = ["dot", "json"]
                rng.shuffle(formats)
                for fmt in formats:
                    ops.append({"kind": f"graph-{fmt}", "argv": ["graph", "--format", fmt, path],
                                "label": label, "spec": spec, "units": 1})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = os.path.join(workdir, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": ops}, fh)
    return manifest


def load(manifest_path: str) -> tuple[list[dict], dict[str, str]]:
    """Read the manifest and every picture it names (the run's set-up)."""
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    texts = {}
    for op in manifest["ops"]:
        path = op["argv"][-1]
        if op["kind"] != "census" and path not in texts:
            with open(path, encoding="utf-8") as fh:
                texts[path] = fh.read().rstrip("\n")
    return manifest["ops"], texts


# -- output checks -------------------------------------------------------------


def reference(op: dict) -> dict:
    """The expected result of an op, from the pinned references alone."""
    spec = op["spec"]
    kind = op["kind"]
    if kind == "census":
        rows, cols = CENSUS_SIZE
        return {"counts": CENSUS_COUNTS, "rows": rows, "cols": cols}
    if kind == "classify":
        return {"flags": block_verdict(spec["layout"])}
    if kind == "neutralize":
        return {"member": block_verdict(spec["layout"])[2], "trace": merged_trace(spec["layout"])}
    if "noose" in spec:
        return {"longest": 4 + 8 * spec["noose"]}
    lengths = Counter()
    for row in spec["layout"]:
        for name in row:
            lengths.update(CIRCUIT_LENGTHS[name])
    return {"lengths": sorted(lengths.elements())}


def check(op: dict, ref: dict, rc: int, out: str, texts: dict[str, str]) -> Optional[str]:
    """None if the output matches the reference, else the reason it does not."""
    if rc != 0:
        return f"exit code {rc}"
    kind = op["kind"]
    if kind == "census":
        return _check_census(ref, out)
    text = texts[op["argv"][-1]]
    if kind == "classify":
        flags = json.loads(out)
        got = [flags[k] for k in CLASS_KEYS]
        return None if got == ref["flags"] else f"flags {got} != {ref['flags']}"
    if kind == "neutralize":
        return _check_neutralize(ref, out, text)
    return _check_graph(kind, ref, out, text)


def _check_census(ref: dict, out: str) -> Optional[str]:
    result = json.loads(out)
    if result["counts"] != ref["counts"]:
        return f"counts {result['counts']} != {ref['counts']}"
    if (result["rows"], result["cols"]) != (ref["rows"], ref["cols"]):
        return "wrong size"
    if sorted(result["witnesses"]) != ["dc_not_dq", "dn_not_dw", "dq_not_dn"]:
        return f"witnesses {sorted(result['witnesses'])}"
    for text in result["witnesses"].values():
        lines = text.split("\n")
        if len(lines) != ref["rows"] or any(len(ln) != ref["cols"] for ln in lines):
            return "witness of the wrong size"
    return None


def _check_neutralize(ref: dict, out: str, text: str) -> Optional[str]:
    lines = out.split("\n")
    verdict = "neutralizable" if ref["member"] else "not neutralizable"
    if lines[1:] != [verdict, ""]:
        return f"verdict {lines[1:]!r} != {verdict!r}"
    if lines[0] != trace_json(ref["trace"]):
        return "trace differs from the merged block traces"
    if ref["member"] and len(json.loads(lines[0])) * 4 != len(text) - text.count("\n"):
        return "member trace does not have rows*cols/4 steps"
    return None


def _check_graph(kind: str, ref: dict, out: str, text: str) -> Optional[str]:
    grid = text.split("\n")
    rows, cols = len(grid), len(grid[0])
    cells = {(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)}
    if kind == "graph-json":
        g = json.loads(out)
        labels = {(i, j): lab for i, j, lab in g["nodes"]}
        row_edges = [tuple(map(tuple, e)) for e in g["row_edges"]]
        col_edges = [tuple(map(tuple, e)) for e in g["col_edges"]]
        listed = [len(c["nodes"]) for c in g["circuits"]]
        covered = [tuple(n) for c in g["circuits"] for n in c["nodes"]]
        if len(covered) != len(cells) or set(covered) != cells:
            return "circuits do not partition the cells"
        colors = None
    else:
        labels, row_edges, col_edges, colors = _parse_dot(out)
        listed = None
    if labels != {(i, j): grid[i - 1][j - 1] for i, j in cells}:
        return "node labels differ from the picture"
    for edges, same_line in ((row_edges, 0), (col_edges, 1)):
        ends = [p for e in edges for p in e]
        if len(ends) != len(cells) or set(ends) != cells:
            return "a node does not have exactly one row and one column edge"
        if any(u[same_line] != v[same_line] for u, v in edges):
            return "an edge leaves its row or column"
    lengths = _circuit_lengths(row_edges, col_edges, colors)
    if lengths is None:
        return "a circuit mixes colours"
    if listed is not None and sorted(listed) != lengths:
        return "listed circuits differ from the edges"
    if any(n % 4 for n in lengths):
        return "circuit length not divisible by 4"
    if "longest" in ref and lengths[-1] != ref["longest"]:
        return f"longest circuit {lengths[-1]} != {ref['longest']}"
    if "lengths" in ref and lengths != ref["lengths"]:
        return "circuit lengths differ from the blocks'"
    return None


def _parse_dot(out: str):
    labels, colors, row_edges, col_edges = {}, {}, [], []
    for line in out.split("\n"):
        line = line.strip()
        if " -- " in line:
            u, rest = line.split(" -- ")
            v = rest.split(" [")[0]
            edge = (_pos(u), _pos(v))
            (row_edges if "style=solid" in rest else col_edges).append(edge)
        elif line.startswith('"') and "[label=" in line:
            pos = _pos(line.split(" [")[0])
            labels[pos] = line.split('label="')[1].split('"')[0]
            colors[pos] = line.split('color="')[1].split('"')[0]
    return labels, row_edges, col_edges, colors


def _pos(token: str) -> tuple[int, int]:
    i, j = token.strip('"').split(",")
    return int(i), int(j)


def _circuit_lengths(row_edges, col_edges, colors) -> Optional[list[int]]:
    """Sorted sizes of the components of the edge set; None if a colour is split."""
    adj: dict = {}
    for u, v in row_edges + col_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set = set()
    lengths = []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            u = stack.pop()
            size += 1
            for v in adj[u]:
                if colors is not None and colors[v] != colors[u]:
                    return None
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        lengths.append(size)
    return sorted(lengths)


def corruptions(op: dict, ref: dict) -> list[dict]:
    """Deliberately wrong references for an op, for the failure-detection self-test."""
    kind = op["kind"]
    if kind == "census":
        counts = dict(ref["counts"], dw=ref["counts"]["dw"] + 1)
        return [dict(ref, counts=counts)]
    if kind == "classify":
        return [dict(ref, flags=[ref["flags"][0]] + [not f for f in ref["flags"][1:]])]
    if kind == "neutralize":
        trace = list(ref["trace"])
        wrong_trace = trace[1:] + trace[:1] if len(trace) > 1 else trace + trace
        return [dict(ref, member=not ref["member"]), dict(ref, trace=wrong_trace)]
    if "longest" in ref:
        return [dict(ref, longest=ref["longest"] + 8)]
    return [dict(ref, lengths=sorted(ref["lengths"][1:] + [ref["lengths"][0] + 4]))]

"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced public function, under every name
the package binds it to (for example both `thermo.certified_roots` and
`ratmap.certified_roots`), with a wrapper that records calls, inclusive
seconds and self seconds (inclusive minus the wrapped calls it made).
Counts that can be read off results are taken from those results.
`uninstall()` puts the original bindings back, so untraced passes run the
program exactly as shipped.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

# Metric prefix -> (module, attribute path) of the traced function.
TRACED = {
    "cli.main": ("cli", "main"),
    "serialize.dump_json": ("serialize", "dump_json"),
    "serialize.load_json": ("serialize", "load_json"),
    "serialize.measure_to_json": ("serialize", "measure_to_json"),
    "serialize.measure_from_json": ("serialize", "measure_from_json"),
    "serialize.measure_to_csv": ("serialize", "measure_to_csv"),
    "thermo.build_preimage_tree": ("thermo", "build_preimage_tree"),
    "thermo.ruelle_apply": ("thermo", "ruelle_apply"),
    "thermo.pressure": ("thermo", "pressure"),
    "ratmap.preimage_polynomial": ("ratmap", "preimage_polynomial"),
    "roots.certified_roots": ("roots", "certified_roots"),
    "polynomials.square_free_decomposition": ("polynomials", "square_free_decomposition"),
    "balls.ball_exp": ("balls", "ball_exp"),
    "balls.ball_log": ("balls", "ball_log"),
    "potentials.evaluate_with_displacement": ("potentials", "Potential.evaluate_with_displacement"),
    "sphere.chordal": ("sphere", "chordal"),
    "measures.space_distance": ("measures", "space_distance"),
    "measures.wasserstein_detail": ("measures", "wasserstein_detail"),
    "measures.pushforward": ("measures", "pushforward"),
    "transport.min_cost_transport": ("transport", "min_cost_transport"),
    "trisphere.dist_tri": ("trisphere", "dist_tri"),
    "thurston.tile_complex": ("thurston", "tile_complex"),
    "thurston.eval": ("thurston", "SubdivisionMap.eval"),
    "thurston.mme_tile_measure": ("thurston", "mme_tile_measure"),
    "verify.membership_residual": ("verify", "membership_residual"),
    "verify.jacobian_unitarity": ("verify", "jacobian_unitarity"),
    "verify.enumerate_preimages": ("verify", "enumerate_preimages"),
    # Traced but not reported: their time would otherwise count as the
    # self time of `cli.main` or of the harness.
    "thermo.backward_orbit_measure": ("thermo", "backward_orbit_measure"),
    "measures.wasserstein": ("measures", "wasserstein"),
    "serialize.parse_map": ("serialize", "parse_map"),
    "serialize.parse_potential": ("serialize", "parse_potential"),
}

# Reported per-layer metrics, in print order.  `<fn>.calls`, `<fn>.s`
# (inclusive) and `<fn>.self_s` come from the wrappers; the rest are
# counts read off results (see the post hooks below).
LAYER_METRICS = [
    "cli.main.self_s",
    "serialize.dump_json.s", "serialize.load_json.s",
    "serialize.measure_to_json.s", "serialize.measure_from_json.s",
    "serialize.measure_to_csv.s", "serialize.json_bytes",
    "thermo.build_preimage_tree.calls", "thermo.build_preimage_tree.self_s",
    "thermo.tree_nodes", "thermo.leaf_den_bits_max",
    "thermo.ruelle_apply.calls", "thermo.ruelle_apply.self_s",
    "thermo.pressure.self_s", "thermo.tree_builds_per_ruelle",
    "ratmap.preimage_polynomial.calls", "ratmap.preimage_polynomial.s",
    "roots.certified_roots.calls", "roots.certified_roots.self_s", "roots.degree_total",
    "polynomials.square_free_decomposition.calls", "polynomials.square_free_decomposition.s",
    "balls.ball_exp.calls", "balls.ball_exp.s", "balls.ball_log.calls", "balls.ball_log.s",
    "potentials.evaluate_with_displacement.calls", "potentials.evaluate_with_displacement.s",
    "sphere.chordal.calls", "sphere.chordal.s",
    "measures.space_distance.calls", "measures.space_distance.s",
    "measures.wasserstein_detail.self_s", "measures.pushforward.self_s",
    "transport.min_cost_transport.calls", "transport.min_cost_transport.s",
    "transport.cost_entries", "transport.plan_arcs",
    "trisphere.dist_tri.calls", "trisphere.dist_tri.s",
    "thurston.tile_complex.s", "thurston.tiles_built",
    "thurston.eval.calls", "thurston.eval.s", "thurston.mme_tile_measure.self_s",
    "verify.membership_residual.self_s", "verify.jacobian_unitarity.self_s",
    "verify.enumerate_preimages.calls", "verify.enumerate_preimages.s",
]

COUNT_UNITS = {
    "serialize.json_bytes": "bytes",
    "thermo.leaf_den_bits_max": "bits",
    "thermo.tree_builds_per_ruelle": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in COUNT_UNITS:
        return COUNT_UNITS[metric]
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"


@dataclass
class _Stat:
    calls: int = 0
    incl: float = 0.0
    self_s: float = 0.0


def _den_bits(point) -> int:
    z = point.value
    if z is None:
        return 0
    return max(z.re.denominator.bit_length(), z.im.denominator.bit_length())


def _post_tree(tr: "Tracer", tree, args, kwargs) -> None:
    tr.counts["thermo.tree_nodes"] += sum(len(level) for level in tree.levels)
    bits = max((_den_bits(leaf.point) for leaf in tree.leaves()), default=0)
    tr.counts["thermo.leaf_den_bits_max"] = max(tr.counts["thermo.leaf_den_bits_max"], bits)
    if any(frame[0] == "thermo.ruelle_apply" for frame in tr.stack):
        tr.counts["builds_in_ruelle"] += 1


def _post_roots(tr: "Tracer", clusters, args, kwargs) -> None:
    tr.counts["roots.degree_total"] += args[0].degree


def _post_dump(tr: "Tracer", result, args, kwargs) -> None:
    tr.counts["serialize.json_bytes"] += os.path.getsize(args[1])


def _post_transport(tr: "Tracer", res, args, kwargs) -> None:
    tr.counts["transport.cost_entries"] += len(args[0]) * len(args[1])
    tr.counts["transport.plan_arcs"] += len(res.plan)


def _post_tiles(tr: "Tracer", complex_, args, kwargs) -> None:
    # tile_complex is memoised; a complex not seen before in this pass
    # was built by this call.
    if id(complex_) not in tr.seen_complexes:
        tr.seen_complexes[id(complex_)] = complex_
        tr.counts["thurston.tiles_built"] += len(complex_.tiles)


POST = {
    "thermo.build_preimage_tree": _post_tree,
    "roots.certified_roots": _post_roots,
    "serialize.dump_json": _post_dump,
    "transport.min_cost_transport": _post_transport,
    "thurston.tile_complex": _post_tiles,
}


class Tracer:
    def __init__(self) -> None:
        self._bindings: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, float] = {k: 0 for k in (
            "thermo.tree_nodes", "thermo.leaf_den_bits_max", "builds_in_ruelle",
            "roots.degree_total", "serialize.json_bytes", "transport.cost_entries",
            "transport.plan_arcs", "thurston.tiles_built")}
        self.stack: list[list] = []  # [name, seconds spent in wrapped children]
        self.depth: dict[str, int] = {}
        self.seen_complexes: dict[int, object] = {}

    def _wrap(self, name: str, fn):
        post = POST.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            tracer.stack.append(frame)
            tracer.depth[name] = tracer.depth.get(name, 0) + 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                # Also on an exception: ruelle_apply retries after a
                # failed tree build, and that build is not its self time.
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                tracer.depth[name] -= 1
                st = tracer.stats.setdefault(name, _Stat())
                st.calls += 1
                st.self_s += dt - frame[1]
                if tracer.depth[name] == 0:  # count recursive calls once
                    st.incl += dt
                if tracer.stack:
                    tracer.stack[-1][1] += dt
            if post is not None:
                t1 = time.perf_counter()
                post(tracer, result, args, kwargs)
                if tracer.stack:  # the hook is no one's self time
                    tracer.stack[-1][1] += time.perf_counter() - t1
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "equistate" or n.startswith("equistate.")) and m is not None]
        for name, (mod_name, path) in TRACED.items():
            mod = sys.modules[f"equistate.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                self._bindings.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(mod, path)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._bindings.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def snapshot(self) -> dict[str, float]:
        """Per-layer values of the work recorded since the last reset."""
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            if metric in self.counts:
                out[metric] = self.counts[metric]
                continue
            if metric == "thermo.tree_builds_per_ruelle":
                calls = self._stat("thermo.ruelle_apply").calls
                out[metric] = self.counts["builds_in_ruelle"] / calls if calls else 0.0
                continue
            fn, stat = metric.rsplit(".", 1)
            st = self._stat(fn)
            out[metric] = {"calls": st.calls, "s": st.incl, "self_s": st.self_s}[stat]
        return out

    def _stat(self, name: str) -> _Stat:
        return self.stats.get(name, _Stat())

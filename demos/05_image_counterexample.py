"""
Functional images and the border-route counterexample
======================================================

The coefficient functional a_1 maps a family to a planar region.  Border
elements sweep the same region from the boundary inward, and the stock
two-pencil family shows the border-image inclusion is one-sided: the
union of border images contains 0, but 0 is far from the region's
boundary.
"""

import tempfile
from pathlib import Path

from convdual import (
    Functional,
    ParamGrid,
    TruncSeries,
    counterexample_family,
    dump_family,
    functional_image,
    verify_theorem,
)

V = counterexample_family()
lam = Functional(TruncSeries.polynomial([0.0, 1.0]), label="a1")

# Direct route: instantiate members on a parameter grid and evaluate.
direct = functional_image(lam, V, grid=ParamGrid(disk_radial=12, disk_angular=48))
cand = direct.boundary_candidates()
print("direct route:", len(direct.points), "points,", len(cand), "boundary candidates;",
      "median nearest-point spacing", round(direct.mesh_spacing, 4))
print("boundary moduli range:", abs(cand).min().round(4), "to", abs(cand).max().round(4))

# Border route: dilate border elements through a radius mesh instead.
border = functional_image(lam, V, via_border=True, mesh_depth=8)
print("border route:", len(border.points), "points; median distance between neighbouring",
      "mesh images", round(border.mesh_spacing, 4))
print("distance from 0 to the border-image union:", border.nearest_distance(0.0))

# The point clouds export as CSV for external plotting.
out = Path(tempfile.gettempdir()) / "a1_image.csv"
direct.to_csv(out)
print("cloud written to", out)

# The packaged verifier runs the full counterexample argument: the
# boundary sits on the unit circle, the border-image union reaches 0,
# and 0 is interior, so the reverse inclusion fails.
report = verify_theorem("CE", V)
print("counterexample verdict:", report.summary)
for check in report.checks:
    print(" ", check.check_id, "->", check.status)

# The same family round-trips through the spec-file format used by the
# command line.
spec = Path(tempfile.gettempdir()) / "counterexample.spec"
dump_family(V, spec)
print("spec file written to", spec, "- try: convdual verify --theorem CE --family", spec)

"""Walk through the three edge-probability models and the graph samplers.

Every graph here has independent Bernoulli edges.  Under the null the edge
probabilities come straight from the model; under the alternative a chosen
vertex subset gets all of its internal probabilities multiplied by a lift
rho >= 1.  The two samplers share one uniform stream per seed, so the null
and the planted draw for the same seed differ only on pairs inside the
community.
"""

import tempfile
from pathlib import Path

import numpy as np

from plantedscan import (
    GeneralMatrix,
    Homogeneous,
    PlantedAlternative,
    RankOne,
    expected_edges_null,
    expected_total_null,
    read_edge_list,
    sample_alternative,
    sample_null,
    write_edge_list,
)

n, p = 200, 0.05
model = Homogeneous(n, p)
print(f"Homogeneous model: n={n}, every pair has probability {p}")
print(f"  expected total edges : {expected_total_null(model):.1f}")

g = sample_null(model, seed=1)
print(f"  sampled total (seed 1): {g.total_edges()}")
print(f"  degree of vertex 0   : {g.degree(0)}")

community = tuple(range(8))
rho = 6.0
alt = PlantedAlternative(community, rho, model)
h = sample_alternative(model, alt, seed=1)
print(f"\nPlanting a lift of rho={rho} on vertices {community}:")
print(f"  expected edges inside, null   : {expected_edges_null(model, community):.2f}")
print(f"  expected edges inside, lifted : {rho * expected_edges_null(model, community):.2f}")
print(f"  observed inside, null draw    : {g.edges_within(community)}")
print(f"  observed inside, planted draw : {h.edges_within(community)}")

# shared stream: outside the community the two draws agree bit for bit
outside = np.setdiff1d(np.arange(n), community)
assert g.edges_within(outside) == h.edges_within(outside)
print("  outside the community the two draws are identical (same seed)")

# rank-one: probability of a pair is the product of two vertex weights
weights = np.full(50, 0.1)
weights[:5] = 0.6
r1 = RankOne(weights)
print(f"\nRankOne model on {r1.n} vertices, five heavy vertices at weight 0.6:")
print(f"  heavy-heavy pair prob : {r1.probability(0, 1):.3f}")
print(f"  heavy-light pair prob : {r1.probability(0, 10):.3f}")
print(f"  light-light pair prob : {r1.probability(10, 20):.3f}")

# general matrix: any symmetric probability matrix with a zero diagonal
m = np.array([
    [0.0, 0.9, 0.1, 0.1],
    [0.9, 0.0, 0.1, 0.1],
    [0.1, 0.1, 0.0, 0.9],
    [0.1, 0.1, 0.9, 0.0],
])
gm = GeneralMatrix(m)
print(f"\nGeneralMatrix on {gm.n} vertices (two tight pairs):")
print(f"  expected total edges: {expected_total_null(gm):.2f}")

# edge lists round-trip through a plain text format
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "sample.edges"
    write_edge_list(h, path)
    back = read_edge_list(path)
    assert back.total_edges() == h.total_edges()
    lines = path.read_text().splitlines()
    print(f"\nEdge list written to disk: {len(lines)} lines, first three:")
    for line in lines[:3]:
        print(f"  {line}")

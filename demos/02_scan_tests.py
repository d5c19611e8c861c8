"""Run the two scan tests: probabilities known, and probabilities unknown.

The known-probability scan scores every candidate subset by how far its
edge count overshoots its null expectation, measured through the entropy
kernel h and normalised by k*ln(n/k).  It rejects when some subset scores
above 1 + eps/2.  The blind scan never touches the model: it estimates a
subset's null mean from the graph's own total and cross edge counts, and
guards against tiny subsets (where that estimate is junk) with a hard
floor on the estimate and a restricted size window.
"""

from plantedscan import (
    Explicit,
    Homogeneous,
    PlantedAlternative,
    ScanConfig,
    derive_seed,
    min_blind_size,
    sample_alternative,
    sample_null,
    scan_known,
    scan_unknown,
    threshold_scaling,
)

# -- known probabilities: exhaustive scan on a small graph --------------------

n, p, r = 32, 0.1, 5
model = Homogeneous(n, p)
community = tuple(range(r))

bound = threshold_scaling(model, community)
print(f"Known-probability scan at n={n}, p={p}, community size {r}")
print(f"  critical lift rho* = {bound.rho_star:.3f} "
      f"(feasible: {bound.feasible})")

rho = 9.5  # comfortably above rho*, still below 1/p
alt = PlantedAlternative(community, rho, model)
cfg = ScanConfig(r=r, epsilon=0.2)

g_null = sample_null(model, seed=10)
g_alt = sample_alternative(model, alt, seed=10)

out0 = scan_known(model, g_null, cfg)
out1 = scan_known(model, g_alt, cfg)
print(f"  null draw    : statistic {out0.statistic:.3f} vs threshold "
      f"{out0.threshold:.2f}, reject={out0.reject}")
print(f"  planted draw : statistic {out1.statistic:.3f} vs threshold "
      f"{out1.threshold:.2f}, reject={out1.reject}")
print(f"  best subset found: {out1.subset} (planted: {community})")

# -- unknown probabilities: the floor makes small subsets unscannable ---------

n2, r2 = 512, 64
model2 = Homogeneous(n2, 0.05)
print(f"\nBlind scan at n={n2}: size window is [{min_blind_size(r2)}, {r2}] "
      f"for r={r2}")
print("  the per-size floor (k^2/n)*ln(n/k)^4 vs the pair count k(k-1)/2:")
for k in (2, 4, 8, 16, 32, 64):
    import math
    floor = k * k / n2 * math.log(n2 / k) ** 4
    pairs = k * (k - 1) / 2
    tag = "floor dominates" if floor >= pairs else "scannable"
    print(f"    k={k:3d}: floor {floor:8.1f}  pairs {pairs:7.0f}  ({tag})")

community2 = tuple(range(4, 4 + r2))
alt2 = PlantedAlternative(community2, 5.0, model2)
# scan along nested prefixes of a candidate ordering; an exhaustive scan
# over all subsets up to size 64 would enumerate ~1e60 of them
chain = tuple(community2[:k] for k in range(min_blind_size(r2), r2 + 1))
cfg2 = ScanConfig(r=r2, epsilon=0.5, family=Explicit(chain))

hits = 0
for i in range(20):
    g = sample_alternative(model2, alt2, derive_seed(99, "demo-alt", i))
    hits += scan_unknown(g, cfg2, decide=True).reject
false_alarms = 0
for i in range(20):
    g = sample_null(model2, derive_seed(99, "demo-null", i))
    false_alarms += scan_unknown(g, cfg2, decide=True).reject

print(f"  planted rho=5 on 64 vertices: detected {hits}/20 draws")
print(f"  null draws flagged          : {false_alarms}/20")

"""The bundled claims manifest.

Every verification report points at one entry here via its claim id, so a
report never floats free of the mathematical statement it checks.
Provenance values: "literature" for statements the lab re-verifies at desk
scale, "derived" for values computed by an independent in-repo oracle,
"definition" for direct consequences of the definitions, "conjecture" for
probe-only statements that must never gate a suite.
"""

CLAIMS = {
    "shift-grid": {
        "topic": "shifts",
        "statement": (
            "The shifts of the s-stable Kneser graph on [n] are exactly the "
            "rotations with index in {1..s-1} u {n-s+1..n-1}, together with "
            "{ms+r+1 .. (m+1)s-1} for m in 1..k-2 (r = n-sk) when "
            "sk+1 <= n <= (k+1)s-2; brute force over all 2n group elements "
            "must agree with this prediction."
        ),
        "provenance": "literature",
    },
    "shift-reflexion-witness": {
        "topic": "shifts",
        "statement": (
            "No reflexion is a shift: each one admits an s-stable vertex "
            "meeting its own image, and the constructed witness verifies."
        ),
        "provenance": "literature",
    },
    "count-vertices": {
        "topic": "structure",
        "statement": "The s-stable Kneser graph with n = ks+1 has exactly ks+1 vertices.",
        "provenance": "literature",
    },
    "gap-structure": {
        "topic": "structure",
        "statement": (
            "Every vertex of the s-stable Kneser graph with n = ks+1 has k-1 "
            "circular gaps equal to s and exactly one equal to s+1."
        ),
        "provenance": "literature",
    },
    "iso-map": {
        "topic": "isomorphism",
        "statement": (
            "The explicit index formula maps the circular graph on ks+1 "
            "vertices bijectively onto the s-stable Kneser graph with "
            "n = ks+1, preserving adjacency in both directions."
        ),
        "provenance": "literature",
    },
    "iso-search": {
        "topic": "isomorphism",
        "statement": (
            "An independent isomorphism search confirms that the circular "
            "graph on ks+1 vertices and the s-stable Kneser graph with "
            "n = ks+1 are isomorphic."
        ),
        "provenance": "derived",
    },
    "chi-exact": {
        "topic": "coloring",
        "statement": (
            "The exact chromatic number equals the closed-form value: "
            "n-2k+2 for Kneser and 2-stable Kneser graphs, ceil(n/k) for "
            "circular graphs, a+1+ceil(r/q) for the a-th power of an "
            "n-cycle (n = q(a+1)+r), and s+2 for the s-stable Kneser graph "
            "on 2s+2 points with k = 2, s >= 3."
        ),
        "provenance": "literature",
    },
    "chi-critical": {
        "topic": "coloring",
        "statement": (
            "2-stable Kneser graphs are vertex-critical: deleting any "
            "single vertex lowers the chromatic number."
        ),
        "provenance": "literature",
    },
    "chi-not-critical": {
        "topic": "coloring",
        "statement": (
            "The s-stable Kneser graph on 2s+2 points (k = 2, s >= 3) is "
            "not vertex-critical: some vertex deletion keeps the chromatic "
            "number at s+2."
        ),
        "provenance": "literature",
    },
    "chi-lower-bound": {
        "topic": "coloring",
        "statement": (
            "For k = 2 and n = 2s+2, the subgraph induced by the stable "
            "pairs at circular distance s or s+2 plus two distance-(s+1) "
            "pairs already needs s+2 colors."
        ),
        "provenance": "literature",
    },
    "core-status": {
        "topic": "cores",
        "statement": (
            "Exhaustive endomorphism search decides the core property: "
            "Kneser and 2-stable Kneser graphs are cores, the s-stable "
            "Kneser graph on 2s+2 points is a core, and an even cycle of "
            "length >= 4 is not."
        ),
        "provenance": "literature",
    },
    "homidem-positive": {
        "topic": "hom-idempotence",
        "statement": (
            "The s-stable Kneser graph with n = ks+1 admits a verified "
            "homomorphism from its cartesian square, obtained from residue "
            "addition on the isomorphic circulant."
        ),
        "provenance": "literature",
    },
    "homidem-negative-shape": {
        "topic": "hom-idempotence",
        "statement": (
            "The Cayley graph of the dihedral group on the shift set of the "
            "graph is the disjoint union of two copies of the (s-1)-th "
            "power of an n-cycle (two plain n-cycles when s = 2)."
        ),
        "provenance": "literature",
    },
    "homidem-negative-chi": {
        "topic": "hom-idempotence",
        "statement": (
            "The chromatic number of that Cayley graph is strictly below "
            "the chromatic number of the stable Kneser graph, so no "
            "homomorphism into it can exist."
        ),
        "provenance": "literature",
    },
    "homidem-negative-search": {
        "topic": "hom-idempotence",
        "statement": (
            "Exhaustive search confirms there is no homomorphism from the "
            "stable Kneser graph into the Cayley graph of its shift set. "
            "For a core, that rules out hom-idempotence."
        ),
        "provenance": "literature",
    },
    "homidem-square-search": {
        "topic": "hom-idempotence",
        "statement": (
            "Optional direct search for a homomorphism from the cartesian "
            "square onto the graph itself; informational only."
        ),
        "provenance": "derived",
    },
    "conjecture-chi": {
        "topic": "conjectures",
        "statement": (
            "Conjectured: the chromatic number of the s-stable Kneser graph "
            "equals n-(k-1)s for n > sk. Probe only, never asserted."
        ),
        "provenance": "conjecture",
    },
    "conjecture-homidem": {
        "topic": "conjectures",
        "statement": (
            "Conjectured: for s >= 3 and n > ks+1 the s-stable Kneser graph "
            "is not hom-idempotent. Probe only, never asserted."
        ),
        "provenance": "conjecture",
    },
}

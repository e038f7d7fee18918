"""k-means clustering (MacQueen 1967), from scratch.

The paper's Table III case study represents each webpage as a 58-length
binary vector over shared CDN domains and splits the cohort into a
high-sharing and a low-sharing group with k-means (k = 2).  This module
implements Lloyd's iteration with k-means++ seeding, deterministic
under a caller-provided seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

Vector = Sequence[float]


def _distance_sq(a: Vector, b: Vector) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def _centroid(vectors: list[Vector], dim: int) -> tuple[float, ...]:
    if not vectors:
        return tuple(0.0 for _ in range(dim))
    return tuple(
        sum(vector[i] for vector in vectors) / len(vectors) for i in range(dim)
    )


@dataclass
class KMeansResult:
    """Final clustering state."""

    centroids: list[tuple[float, ...]]
    labels: list[int]
    inertia: float
    iterations: int

    def cluster_indices(self, label: int) -> list[int]:
        """Indices of the points assigned to ``label``."""
        return [i for i, assigned in enumerate(self.labels) if assigned == label]

    @property
    def k(self) -> int:
        return len(self.centroids)


def kmeans(
    vectors: Sequence[Vector],
    k: int,
    seed: int = 0,
    max_iterations: int = 100,
    n_init: int = 5,
) -> KMeansResult:
    """Cluster ``vectors`` into ``k`` groups.

    Runs ``n_init`` independent k-means++ initializations and returns
    the run with the lowest inertia (within-cluster sum of squares).
    """
    vectors = [tuple(float(x) for x in v) for v in vectors]
    if not vectors:
        raise ValueError("no vectors to cluster")
    if k <= 0 or k > len(vectors):
        raise ValueError(f"k must be in [1, {len(vectors)}], got {k}")
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise ValueError(f"vectors have inconsistent dimensions: {sorted(dims)}")
    rng = random.Random(seed)
    best: KMeansResult | None = None
    for _ in range(n_init):
        candidate = _kmeans_once(vectors, k, rng, max_iterations)
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    assert best is not None
    return best


def _kmeans_plus_plus_init(
    vectors: list[tuple[float, ...]], k: int, rng: random.Random
) -> list[tuple[float, ...]]:
    centroids = [rng.choice(vectors)]
    while len(centroids) < k:
        distances = [
            min(_distance_sq(v, c) for c in centroids) for v in vectors
        ]
        total = sum(distances)
        if total == 0.0:
            # All points coincide with existing centroids; pick randomly.
            centroids.append(rng.choice(vectors))
            continue
        threshold = rng.random() * total
        cumulative = 0.0
        for vector, distance in zip(vectors, distances):
            cumulative += distance
            if cumulative >= threshold:
                centroids.append(vector)
                break
    return centroids


def _kmeans_once(
    vectors: list[tuple[float, ...]],
    k: int,
    rng: random.Random,
    max_iterations: int,
) -> KMeansResult:
    dim = len(vectors[0])
    centroids = _kmeans_plus_plus_init(vectors, k, rng)
    labels = [-1] * len(vectors)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_labels = [
            min(range(k), key=lambda j: _distance_sq(vector, centroids[j]))
            for vector in vectors
        ]
        if new_labels == labels:
            break
        labels = new_labels
        clusters: list[list[Vector]] = [[] for _ in range(k)]
        for vector, label in zip(vectors, labels):
            clusters[label].append(vector)
        centroids = [
            _centroid(cluster, dim) if cluster else centroids[j]
            for j, cluster in enumerate(clusters)
        ]
    inertia = sum(
        _distance_sq(vector, centroids[label])
        for vector, label in zip(vectors, labels)
    )
    return KMeansResult(
        centroids=[tuple(c) for c in centroids],
        labels=labels,
        inertia=inertia,
        iterations=iterations,
    )

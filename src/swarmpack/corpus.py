"""Embedded benchmark instances and their published best-known radii.

Two families: ten fixed instances of 10 to 55 circles with independently
drawn radii and masses (I1..I10), and three graded instances where the mass
of every circle equals its radius (II1..II3), built from tier counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ProblemInstance


class UnknownInstanceError(KeyError):
    """Requested name matches neither a suite nor an embedded instance."""


_SUITE1_DATA = (
    (
        "I1",
        (
            20, 22, 17, 17, 7, 21, 11, 5, 23, 8,
        ),
        (
            35, 61, 49, 89, 68, 80, 93, 82, 70, 20,
        ),
    ),
    (
        "I2",
        (
            8, 14, 8, 15, 11, 17, 21, 16, 6, 18, 24, 13, 20, 10, 15,
        ),
        (
            75, 29, 36, 58, 75, 32, 98, 52, 76, 85, 59, 18, 85, 36, 12,
        ),
    ),
    (
        "I3",
        (
            20, 24, 8, 11, 13, 7, 7, 15, 24, 18, 15, 17, 17, 14, 16, 18, 5,
            21, 21, 13,
        ),
        (
            86, 72, 81, 54, 29, 94, 92, 41, 57, 77, 40, 67, 31, 47, 39, 61,
            73, 83, 11, 20,
        ),
    ),
    (
        "I4",
        (
            24, 16, 19, 7, 14, 24, 15, 6, 16, 16, 23, 10, 9, 10, 18, 22, 7,
            9, 7, 13, 14, 8, 18, 6, 8,
        ),
        (
            16, 80, 52, 21, 42, 86, 67, 96, 61, 79, 57, 62, 32, 38, 20, 75,
            80, 11, 53, 32, 41, 68, 85, 53, 71,
        ),
    ),
    (
        "I5",
        (
            14, 15, 11, 19, 9, 6, 23, 9, 23, 13, 24, 12, 24, 24, 10, 8, 9,
            8, 6, 11, 6, 16, 24, 12, 9, 19, 13, 24, 21, 18,
        ),
        (
            24, 52, 37, 17, 12, 19, 51, 67, 23, 46, 14, 96, 55, 84, 21, 92,
            69, 65, 72, 36, 73, 83, 83, 97, 73, 81, 30, 46, 49, 51,
        ),
    ),
    (
        "I6",
        (
            10, 20, 13, 19, 19, 10, 14, 14, 24, 11, 20, 15, 7, 18, 22, 10,
            13, 12, 21, 14, 9, 10, 9, 7, 8, 18, 8, 8, 23, 14, 13, 21, 23,
            16, 10,
        ),
        (
            44, 46, 14, 32, 70, 31, 95, 24, 75, 99, 99, 79, 10, 79, 69, 64,
            12, 47, 41, 62, 17, 85, 43, 70, 43, 63, 44, 57, 62, 20, 17, 80,
            47, 68, 19,
        ),
    ),
    (
        "I7",
        (
            6, 12, 20, 6, 14, 19, 9, 20, 10, 13, 12, 14, 23, 17, 16, 19, 15,
            10, 12, 18, 21, 6, 20, 17, 13, 20, 17, 6, 21, 15, 12, 9, 14, 20,
            23, 16, 23, 9, 23, 18,
        ),
        (
            74, 48, 16, 35, 19, 58, 87, 90, 17, 29, 32, 63, 46, 76, 26, 88,
            71, 49, 89, 14, 68, 94, 41, 53, 36, 67, 14, 88, 99, 46, 66, 14,
            21, 44, 73, 72, 72, 37, 82, 12,
        ),
    ),
    (
        "I8",
        (
            13, 8, 11, 21, 9, 20, 24, 20, 17, 21, 7, 13, 24, 7, 6, 8, 18,
            15, 12, 18, 17, 21, 8, 23, 22, 15, 10, 17, 24, 8, 14, 6, 16, 14,
            6, 10, 19, 21, 20, 6, 16, 14, 6, 19, 11,
        ),
        (
            91, 95, 96, 47, 63, 37, 56, 96, 84, 70, 36, 41, 48, 12, 86, 43,
            70, 71, 56, 89, 52, 49, 53, 82, 42, 35, 11, 82, 88, 58, 74, 16,
            91, 57, 26, 39, 48, 68, 72, 69, 27, 44, 25, 99, 96,
        ),
    ),
    (
        "I9",
        (
            9, 17, 5, 15, 24, 23, 12, 9, 5, 13, 7, 18, 19, 21, 7, 18, 18,
            24, 12, 23, 22, 13, 5, 6, 17, 21, 7, 18, 14, 17, 10, 15, 18, 8,
            8, 16, 7, 18, 24, 6, 20, 10, 21, 11, 22, 24, 12, 7, 14, 11,
        ),
        (
            19, 85, 60, 19, 88, 18, 28, 55, 66, 47, 49, 69, 93, 94, 35, 43,
            93, 34, 27, 61, 20, 52, 51, 41, 98, 85, 82, 89, 54, 43, 54, 94,
            80, 99, 41, 41, 63, 28, 19, 53, 11, 78, 65, 10, 98, 43, 78, 24,
            84, 16,
        ),
    ),
    (
        "I10",
        (
            17, 23, 17, 13, 18, 21, 23, 22, 7, 9, 8, 13, 20, 11, 10, 19, 10,
            14, 12, 22, 19, 10, 17, 11, 21, 8, 15, 16, 19, 21, 17, 19, 8, 6,
            13, 13, 14, 19, 18, 23, 20, 24, 24, 13, 13, 19, 7, 6, 10, 8, 8,
            10, 24, 19, 24,
        ),
        (
            97, 62, 28, 36, 97, 58, 13, 21, 40, 97, 79, 90, 62, 47, 64, 23,
            23, 95, 99, 44, 71, 79, 52, 59, 47, 60, 41, 47, 90, 95, 81, 98,
            70, 47, 90, 13, 93, 50, 21, 80, 17, 52, 96, 73, 88, 16, 91, 97,
            40, 52, 50, 90, 19, 69, 14,
        ),
    ),
)

# Graded instances as (radius, count) tiers; mass equals radius throughout.
_SUITE2_TIERS = (
    ("II1", ((10, 40), (20, 30), (30, 20), (40, 10))),
    ("II2", ((10, 50), (20, 40), (30, 30), (40, 20), (50, 10))),
    ("II3", ((10, 100), (20, 80), (30, 60), (40, 40), (50, 20))),
)

# Best published radius per instance.
_REFERENCE_RADII = {
    "I1": 59.85,
    "I2": 67.07,
    "I3": 82.58,
    "I4": 82.84,
    "I5": 98.77,
    "I6": 101.52,
    "I7": 113.53,
    "I8": 117.99,
    "I9": 124.30,
    "I10": 135.99,
    "II1": 247.93,
    "II2": 357.97,
    "II3": 504.11,
}


@dataclass(frozen=True)
class BenchmarkCorpus:
    suite1: tuple[ProblemInstance, ...]
    suite2: tuple[ProblemInstance, ...]
    reference_radii: dict

    @property
    def all_instances(self) -> tuple[ProblemInstance, ...]:
        return self.suite1 + self.suite2

    def names(self) -> tuple[str, ...]:
        return tuple(inst.name for inst in self.all_instances)

    def get(self, name: str) -> ProblemInstance:
        for inst in self.all_instances:
            if inst.name == name:
                return inst
        raise UnknownInstanceError(name)

    def suite(self, key: str) -> tuple[ProblemInstance, ...]:
        if key == "suite1":
            return self.suite1
        if key == "suite2":
            return self.suite2
        raise UnknownInstanceError(key)


def _build_suite2(name, tiers) -> ProblemInstance:
    radii = [float(radius) for radius, count in tiers for _ in range(count)]
    return ProblemInstance(name=name, radii=radii, masses=list(radii))


CORPUS = BenchmarkCorpus(
    suite1=tuple(
        ProblemInstance(name=name, radii=radii, masses=masses)
        for name, radii, masses in _SUITE1_DATA
    ),
    suite2=tuple(_build_suite2(name, tiers) for name, tiers in _SUITE2_TIERS),
    reference_radii=dict(_REFERENCE_RADII),
)

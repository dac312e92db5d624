import swarmpack

PUBLIC = ["CORPUS", "Hyperparameters", "InvalidInputError", "ProblemInstance", "SolveResult", "__version__", "solve"]


def test_public_surface_is_the_seven_names():
    assert sorted(swarmpack.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(swarmpack, name)

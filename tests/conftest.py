from hypothesis import settings

# Property tests draw the same examples on every run, so a failure always
# reproduces.  No per-example deadline: the first examples pay for scipy's
# warm-up, which says nothing about the code under test.
settings.register_profile("sizebias", derandomize=True, deadline=None)
settings.load_profile("sizebias")

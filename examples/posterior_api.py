"""The posterior-first pipeline: fit -> save -> load -> resume.

Walks the redesigned API end to end on the eight-schools model:

1. ``compile_model(source).condition(data)`` — compile (memoised) and bind
   data once; the derived potential is cached on the conditioned model;
2. ``model.fit("nuts", checkpoint_every=..., checkpoint_path=...)`` — run
   NUTS while snapshotting the full sampler state at iteration boundaries;
3. ``fit.posterior.save(path)`` / ``Posterior.load(path)`` — exact (bitwise)
   npz + json round trip of draws, stats and metadata;
4. ``model.resume(checkpoint)`` — continue an interrupted run; the draws are
   bitwise-identical to the uninterrupted fit;
5. ``model.fit("vi")`` — the same FitResult surface for variational fits.

Run with ``python examples/posterior_api.py [save_dir]``.  Set
``REPRO_BENCH_ITERS`` to cap the iteration counts (CI smoke runs use 20);
CI saves the resulting artifacts and reloads them in a fresh process.
"""

import os
import sys
import tempfile

from repro import Posterior, compile_model
from repro.corpus import models as corpus_models
from repro.posteriordb import datagen

ITERS = int(os.environ.get("REPRO_BENCH_ITERS", "0"))
WARMUP = ITERS or 150
SAMPLES = ITERS or 200


def main() -> None:
    save_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="posterior-api-")
    os.makedirs(save_dir, exist_ok=True)

    source = corpus_models.get("eight_schools_centered")
    data = datagen.eight_schools_data()
    model = compile_model(source, backend="numpyro", scheme="comprehensive").condition(data)

    # -- fit with checkpointing ----------------------------------------
    checkpoint = os.path.join(save_dir, "nuts.ckpt")
    fit = model.fit("nuts", num_warmup=WARMUP, num_samples=SAMPLES, num_chains=2,
                    seed=0, chain_method="vectorized",
                    checkpoint_every=max((WARMUP + SAMPLES) // 3, 1),
                    checkpoint_path=checkpoint, checkpoint_keep=True)
    posterior = fit.posterior
    print(f"fit: {posterior}")
    print(f"  mu = {posterior.summary()['mu']['mean']:.2f}, "
          f"tau = {posterior.summary()['tau']['mean']:.2f}, "
          f"R-hat(mu) = {posterior.summary()['mu']['r_hat']:.3f}")

    # -- save / load round trip ----------------------------------------
    saved = posterior.save(os.path.join(save_dir, "eight_schools"))
    loaded = Posterior.load(saved)
    assert loaded.equals(posterior), "save/load round trip must be exact"
    assert loaded.summary() == posterior.summary()
    print(f"saved + reloaded exactly: {saved}")

    # -- resume from a mid-run checkpoint ------------------------------
    # checkpoint_keep retained every snapshot; resume the first one as if
    # the original process had been killed there.  The kernel options and
    # fit seed come from the checkpoint itself.
    first_snapshot = checkpoint + ".snap0001"
    resumed = model.resume(first_snapshot, checkpoint_every=0)
    identical = resumed.posterior.equals(posterior)
    print(f"resumed from {os.path.basename(first_snapshot)}: "
          f"bitwise identical = {identical}")
    assert identical, "resume must reproduce the uninterrupted run exactly"

    # -- the same surface for VI ---------------------------------------
    vi = model.fit("vi", guide="auto_normal", num_steps=ITERS * 10 if ITERS else 500,
                   seed=0)
    vi_path = vi.posterior.save(os.path.join(save_dir, "eight_schools_vi"))
    print(f"vi fit: {vi.posterior} -> {vi_path}")
    print(f"  ELBO {vi.elbo_history[0]:.1f} -> {vi.elbo_history[-1]:.1f}, "
          f"k-hat {vi.psis_diagnostic(num_samples=300).khat:.2f}")

    # -- prior predictive + generated quantities ride along ------------
    prior = model.sample_prior(5, seed=1)
    print(f"prior sample sites: {sorted(prior)}")
    print(f"artifacts in {save_dir}: {sorted(os.listdir(save_dir))}")


if __name__ == "__main__":
    main()

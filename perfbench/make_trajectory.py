"""Remake the stored mixed6-solve trajectory that mixed6-sample samples from.

    python3 perfbench/make_trajectory.py

Run from the root of a source checkout.  It runs ``tthjb solve`` on the
mixed6-solve config (``OPENBLAS_NUM_THREADS=1``) and packs the manifest,
diagnostics and every snapshot into ``perfbench/data/mixed6_trajectory.tar.gz``
with fixed metadata, so equal solver outputs give an equal archive.
"""

import gzip
import io
import os
import shutil
import sys
import tarfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("TTHJB_THREADS", None)

import workloads  # noqa: E402


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import tthjb.cli

    work = os.path.join(root, ".perfbench_work", "trajectory")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)
    argv = workloads.WORKLOADS["mixed6-solve"].prepare(work, seed=0)
    if tthjb.cli.main(argv) != 0:
        raise SystemExit("the mixed6 solve failed")
    out = os.path.join(work, "out")
    with open(workloads.TRAJECTORY, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz, \
            tarfile.open(fileobj=gz, mode="w", format=tarfile.USTAR_FORMAT) as tar:
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            info = tarfile.TarInfo(name)
            info.size = len(data)
            info.mode = 0o644
            tar.addfile(info, io.BytesIO(data))
    os.chdir(root)
    shutil.rmtree(work)
    print(f"wrote {workloads.TRAJECTORY}")


if __name__ == "__main__":
    main()

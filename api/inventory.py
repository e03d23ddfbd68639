#!/usr/bin/env python3
"""Write the public API inventory of the workspace's library crates.

For each library crate under `crates/` this runs

    cargo +nightly rustdoc --offline -p <crate> --lib -- \
        -Z unstable-options --output-format json

and writes `api/<lib>.txt`: one sorted `kind path` line per public
module-level item (by its defining path) and one `method Type::name` line per
public method of an inherent impl. Trait impls, enum variants and fields are
not listed. Two crates are left out: `emorphic-bench` (the evaluation
harness, not a library anyone links) and `sat-oracle` (the `publish = false`
reference solver the tests compare against).

Run from anywhere in the workspace with a nightly toolchain installed:

    python3 api/inventory.py            # rewrite api/*.txt
    git diff --exit-code api/           # what CI checks afterwards
"""

import json
import os
import subprocess
import sys

SKIP = {"emorphic-bench", "sat-oracle"}
# Kinds that are not module-level items of their own.
NOT_MODULE_LEVEL = {"variant", "struct_field", "assoc_const", "assoc_type", "primitive"}


def metadata():
    out = subprocess.run(
        ["cargo", "metadata", "--offline", "--no-deps", "--format-version", "1"],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def inventory(doc):
    index, paths = doc["index"], doc["paths"]

    def local_path(item_id):
        entry = paths.get(str(item_id))
        if entry is None or entry["crate_id"] != 0:
            return None
        return "::".join(entry["path"])

    lines = set()
    for item_id, entry in paths.items():
        item = index.get(item_id)
        if (entry["crate_id"] == 0 and entry["kind"] not in NOT_MODULE_LEVEL
                and item is not None and item["visibility"] == "public"):
            lines.add(f"{entry['kind']} {'::'.join(entry['path'])}")
    for item in index.values():
        imp = item["inner"].get("impl")
        if imp is None or imp["trait"] is not None:
            continue
        target = imp["for"].get("resolved_path")
        owner = target and local_path(target["id"])
        if owner is None:
            continue
        for method_id in imp["items"]:
            method = index.get(str(method_id))
            if (method is not None and method["visibility"] == "public"
                    and "function" in method["inner"]):
                lines.add(f"method {owner}::{method['name']}")
    return sorted(lines)


def main():
    meta = metadata()
    root = meta["workspace_root"]
    doc_dir = os.path.join(meta["target_directory"], "doc")
    out_dir = os.path.join(root, "api")
    for package in sorted(meta["packages"], key=lambda p: p["name"]):
        crates_dir = os.path.join(root, "crates") + os.sep
        libs = [t for t in package["targets"] if "lib" in t["kind"]]
        if package["name"] in SKIP or not libs or not package["manifest_path"].startswith(crates_dir):
            continue
        lib = libs[0]["name"].replace("-", "_")
        subprocess.run(
            ["cargo", "+nightly", "rustdoc", "--quiet", "--offline", "-p", package["name"], "--lib",
             "--", "-A", "warnings", "-Z", "unstable-options", "--output-format", "json"],
            check=True, cwd=root,
        )
        with open(os.path.join(doc_dir, f"{lib}.json")) as f:
            lines = inventory(json.load(f))
        with open(os.path.join(out_dir, f"{lib}.txt"), "w") as f:
            f.write("".join(line + "\n" for line in lines))
        print(f"{lib}: {len(lines)} items", file=sys.stderr)


if __name__ == "__main__":
    main()

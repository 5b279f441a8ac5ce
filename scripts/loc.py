# Non-test source size: non-blank lines in crates/*/src outside
# `#[cfg(test)] mod` blocks (braces are counted naively, which the current
# sources tolerate). Run from the repository root: python3 scripts/loc.py
import glob, re
total = 0
for path in glob.glob("crates/*/src/**/*.rs", recursive=True):
    lines = open(path).read().split("\n") + [""]
    i = 0
    while i < len(lines) - 1:
        if lines[i].strip() == "#[cfg(test)]" and re.match(
                r"\s*(pub(\(\w+\))? )?mod \w+\s*\{", lines[i + 1]):
            depth, i = 0, i + 1
            while True:
                depth += lines[i].count("{") - lines[i].count("}")
                i += 1
                if depth <= 0:
                    break
            continue
        total += bool(lines[i].strip())
        i += 1
print(total)

"""Deterministic stand-in for an external reader (stdlib only).

Reads the ``evaluate --reader external`` request JSONL on stdin and
answers each request with the first candidate, in candidate order, that
occurs in its context, or null when none does.
"""

import json
import sys


def main() -> None:
    out = []
    for line in sys.stdin:
        if not line.strip():
            continue
        request = json.loads(line)
        context = set(request["context"])
        answer = next((c for c in request["candidates"] if c in context), None)
        out.append(json.dumps({"qid": request["qid"], "answer": answer}) + "\n")
    sys.stdout.write("".join(out))


if __name__ == "__main__":
    main()

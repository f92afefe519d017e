#!/usr/bin/env python3
"""Fail when a doc cites a repository file that does not exist.

Collects every file path inside an inline code span (`...`) of the given
Markdown files that ends in .cc, .h, .cpp, .json, .py or .md, and checks
it against `git ls-files`. A path matches a tracked file when it equals
the file's path or a trailing part of it, so `serve/service.cc` and
`ann_test.cc` both match `src/serve/service.cc` / `tests/ann_test.cc`.
Fenced code blocks are skipped; names that only exist as command output
(EXEMPT) are allowed.

Usage: check_doc_paths.py README.md DESIGN.md
"""
import re
import subprocess
import sys

# Files that commands in the docs write, not files the repository holds.
EXEMPT = {
    'metrics.json',
}

FENCE_RE = re.compile(r'^```.*?^```', re.MULTILINE | re.DOTALL)
SPAN_RE = re.compile(r'`([^`]+)`')
PATH_RE = re.compile(
    r'(?<![\w./<>*-])([\w][\w./-]*\.(?:cc|h|cpp|json|py|md))(?![\w.-])')


def cited_paths(text):
    text = FENCE_RE.sub('', text)
    for span in SPAN_RE.findall(text):
        if '://' in span:
            continue
        for path in PATH_RE.findall(span):
            yield path[2:] if path.startswith('./') else path


def main(docs):
    tracked = subprocess.run(['git', 'ls-files'], check=True,
                             capture_output=True, text=True).stdout.split()
    missing = []
    for doc in docs:
        with open(doc, encoding='utf-8') as f:
            text = f.read()
        for path in sorted(set(cited_paths(text))):
            if path in EXEMPT:
                continue
            if not any(t == path or t.endswith('/' + path) for t in tracked):
                missing.append(f'{doc}: `{path}`')
    for line in missing:
        print(f'doc path FAIL: {line} is not a tracked file', file=sys.stderr)
    if missing:
        sys.exit(1)
    print(f'doc paths OK: {", ".join(docs)}')


if __name__ == '__main__':
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])

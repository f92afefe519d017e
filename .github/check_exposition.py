#!/usr/bin/env python3
"""Validate a Prometheus text exposition scraped from kpef_serve.

Checks the things a real scraper would choke on:
  * line grammar: every line is # HELP, # TYPE, or `name[{labels}] value`
  * every sample belongs to a family announced by a # TYPE line and
    described by a # HELP line
  * histogram buckets are cumulative (monotone non-decreasing) and the
    +Inf bucket equals <family>_count
  * the serve latency quantile summaries are exported
  * process self-metrics carry live values (RSS > 0, fds > 0)

Usage: check_exposition.py metrics.prom
"""
import re
import sys

SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r' (?P<value>[-+]?(?:[0-9.eE+-]+|inf|nan))$'
)
LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$')


def fail(msg):
    print(f'exposition FAIL: {msg}', file=sys.stderr)
    sys.exit(1)


def main(path):
    types = {}     # family name -> counter|gauge|histogram
    helps = set()
    samples = []   # (name, labels-dict, value)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip('\n')
            if not line:
                continue
            if line.startswith('# HELP '):
                helps.add(line.split(' ', 3)[2])
                continue
            if line.startswith('# TYPE '):
                parts = line.split(' ')
                if len(parts) != 4 or parts[3] not in (
                        'counter', 'gauge', 'histogram', 'summary'):
                    fail(f'line {lineno}: bad TYPE line: {line!r}')
                types[parts[2]] = parts[3]
                continue
            if line.startswith('#'):
                fail(f'line {lineno}: unknown comment form: {line!r}')
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f'line {lineno}: unparseable sample: {line!r}')
            labels = {}
            if m.group('labels'):
                for pair in re.split(r',(?=[a-zA-Z_])', m.group('labels')):
                    if not LABEL_RE.match(pair):
                        fail(f'line {lineno}: bad label pair {pair!r}')
                    key, value = pair.split('=', 1)
                    labels[key] = value[1:-1]
            samples.append((m.group('name'), labels, float(m.group('value'))))

    def family(sample_name):
        for suffix in ('_bucket', '_sum', '_count'):
            if sample_name.endswith(suffix) and \
                    sample_name[: -len(suffix)] in types:
                return sample_name[: -len(suffix)]
        return sample_name

    by_name = {}
    for name, labels, value in samples:
        fam = family(name)
        if fam not in types:
            fail(f'sample {name!r} has no # TYPE announcement')
        # HELP is optional in the exposition format, but every family
        # kpef_serve exports comes from the instrument table, whose rows
        # all carry help text.
        if fam not in helps:
            fail(f'family {fam!r} has no # HELP line')
        by_name.setdefault(name, []).append((labels, value))

    # Histogram invariants.
    histograms = [f for f, t in types.items() if t == 'histogram']
    if not histograms:
        fail('no histogram families exported')
    for fam in histograms:
        buckets = by_name.get(fam + '_bucket', [])
        if not buckets:
            fail(f'histogram {fam} exports no buckets')
        def le_key(entry):
            le = entry[0].get('le', '')
            return float('inf') if le == '+Inf' else float(le)
        buckets.sort(key=le_key)
        previous = -1.0
        for labels, value in buckets:
            if 'le' not in labels:
                fail(f'{fam}_bucket sample missing le label')
            if value < previous:
                fail(f'{fam} buckets not cumulative at le={labels["le"]}: '
                     f'{value} < {previous}')
            previous = value
        if buckets[-1][0].get('le') != '+Inf':
            fail(f'{fam} missing +Inf bucket')
        counts = by_name.get(fam + '_count')
        if not counts or counts[0][1] != buckets[-1][1]:
            fail(f'{fam}: +Inf bucket != _count')

    # Serve latency quantile summaries (PR-6 satellite).
    for fam in ('serve_e2e_ms_quantile', 'serve_queue_wait_ms_quantile',
                'serve_batch_size_quantile'):
        rows = by_name.get(fam)
        if not rows:
            fail(f'missing quantile family {fam}')
        quantiles = {labels.get('quantile') for labels, _ in rows}
        if not {'0.5', '0.95', '0.99'} <= quantiles:
            fail(f'{fam} missing quantile labels, got {sorted(quantiles)}')

    # Process self-metrics must carry live values when sampled on scrape.
    def single(name):
        rows = by_name.get(name)
        if not rows:
            fail(f'missing gauge {name}')
        return rows[0][1]

    if single('process_rss_bytes') <= 0:
        fail('process_rss_bytes not positive')
    if single('process_open_fds') <= 0:
        fail('process_open_fds not positive')
    if single('process_uptime_seconds') < 0:
        fail('process_uptime_seconds negative')
    if single('serve_requests') <= 0:
        fail('serve_requests is zero after traffic')

    print(f'exposition OK: {len(samples)} samples, '
          f'{len(types)} families, {len(histograms)} histograms')


if __name__ == '__main__':
    main(sys.argv[1])

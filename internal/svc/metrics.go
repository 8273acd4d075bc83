package svc

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
)

// latencyBuckets are the histogram upper bounds in seconds, chosen to
// resolve both sub-millisecond cache-hit queries and multi-second
// analytics runs.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// nBuckets is len(latencyBuckets), named so the histogram array type can
// reference it.
const nBuckets = 16

// histogram is a fixed-bucket latency histogram with lock-free recording:
// one atomic add on the matching bucket, the running sum and the count.
type histogram struct {
	counts [nBuckets + 1]atomic.Int64 // +1 for the implicit +Inf bucket
	sumNs  atomic.Int64
	n      atomic.Int64
}

// observe records one duration in nanoseconds.
func (h *histogram) observe(ns int64) {
	s := float64(ns) / 1e9
	i := sort.SearchFloat64s(latencyBuckets, s)
	h.counts[i].Add(1)
	h.sumNs.Add(ns)
	h.n.Add(1)
}

// write renders the histogram in Prometheus exposition format, with
// cumulative bucket counts, labelled by endpoint.
func (h *histogram) write(w io.Writer, name, endpoint string) {
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=\"%g\"} %d\n", name, endpoint, ub, cum)
	}
	cum += h.counts[nBuckets].Load()
	fmt.Fprintf(w, "%s_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, endpoint, cum)
	fmt.Fprintf(w, "%s_sum{endpoint=%q} %g\n", name, endpoint, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count{endpoint=%q} %d\n", name, endpoint, h.n.Load())
}

// metricLine matches one Prometheus text-format sample:
// name{labels} value, the labels optional.
var metricLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? ` +
		`([-+]?([0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?|Inf)|NaN)$`)

// requiredFamilies are the metric families every healthy /metrics
// response must expose; ValidateMetrics fails without them.
var requiredFamilies = []string{
	"lagraphd_graphs",
	"lagraphd_grb_ops_total",
	"lagraphd_http_requests_total",
	"lagraphd_http_request_seconds_bucket",
	"lagraphd_queries_inflight",
}

// ValidateMetrics checks a /metrics payload: every non-comment line must
// be a well-formed Prometheus text sample, every required family must be
// present, and histogram buckets must be cumulative with the +Inf bucket
// equal to the family count. The service's own tests and every node of
// lagraphd's TestSmoke share this validator.
func ValidateMetrics(r io.Reader) error {
	seen := map[string]bool{}
	type histKey struct{ name, labels string }
	lastBucket := map[histKey]struct {
		cum  int64
		last float64
	}{}
	infBucket := map[histKey]int64{}
	counts := map[histKey]int64{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			return fmt.Errorf("metrics line %d malformed: %q", ln, line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		seen[name] = true

		// Histogram coherence bookkeeping.
		switch {
		case strings.HasSuffix(name, "_bucket"):
			fam := strings.TrimSuffix(name, "_bucket")
			labels, le, val, err := parseBucket(line)
			if err != nil {
				return fmt.Errorf("metrics line %d: %v", ln, err)
			}
			k := histKey{fam, labels}
			if le == "+Inf" {
				infBucket[k] = val
				break
			}
			ub, err := parseFloat(le)
			if err != nil {
				return fmt.Errorf("metrics line %d: bad le %q", ln, le)
			}
			prev := lastBucket[k]
			if val < prev.cum {
				return fmt.Errorf("metrics line %d: bucket le=%q count %d below previous %d (not cumulative)", ln, le, val, prev.cum)
			}
			if prev.cum > 0 || prev.last > 0 {
				if ub <= prev.last {
					return fmt.Errorf("metrics line %d: bucket bounds not increasing", ln)
				}
			}
			lastBucket[k] = struct {
				cum  int64
				last float64
			}{val, ub}
		case strings.HasSuffix(name, "_count"):
			fam := strings.TrimSuffix(name, "_count")
			labels, val, err := parseSampleInt(line)
			if err == nil {
				counts[histKey{fam, labels}] = val
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, fam := range requiredFamilies {
		if !seen[fam] {
			return fmt.Errorf("metrics missing required family %q", fam)
		}
	}
	for k, inf := range infBucket {
		if c, ok := counts[k]; ok && c != inf {
			return fmt.Errorf("histogram %s{%s}: +Inf bucket %d != count %d", k.name, k.labels, inf, c)
		}
	}
	return nil
}

// parseBucket splits a _bucket sample into its non-le labels, the le
// value, and the sample value.
func parseBucket(line string) (labels, le string, val int64, err error) {
	open := strings.Index(line, "{")
	close := strings.Index(line, "}")
	if open < 0 || close < open {
		return "", "", 0, fmt.Errorf("bucket sample without labels: %q", line)
	}
	var rest []string
	for _, kv := range strings.Split(line[open+1:close], ",") {
		if strings.HasPrefix(kv, "le=") {
			le = strings.Trim(strings.TrimPrefix(kv, "le="), `"`)
			continue
		}
		rest = append(rest, kv)
	}
	if le == "" {
		return "", "", 0, fmt.Errorf("bucket sample without le label: %q", line)
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(line[close+1:]), "%d", &val); err != nil {
		return "", "", 0, fmt.Errorf("bucket sample value: %q", line)
	}
	return strings.Join(rest, ","), le, val, nil
}

// parseSampleInt reads the labels and integer value of a sample line.
func parseSampleInt(line string) (labels string, val int64, err error) {
	open := strings.Index(line, "{")
	close := strings.Index(line, "}")
	rest := line
	if open >= 0 && close > open {
		labels = line[open+1 : close]
		rest = line[close+1:]
	} else if i := strings.Index(line, " "); i >= 0 {
		rest = line[i:]
	}
	_, err = fmt.Sscanf(strings.TrimSpace(rest), "%d", &val)
	return labels, val, err
}

func parseFloat(s string) (float64, error) {
	var f float64
	_, err := fmt.Sscanf(s, "%g", &f)
	return f, err
}

package obs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// escapeHelp escapes a HELP line per the Prometheus text format:
// backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// escapeLabel escapes a label value: backslash, newline, double quote.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}

// formatValue renders a sample value the way Prometheus clients do.
func formatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} with extra appended last; empty
// when there are no labels.
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): families sorted by name,
// HELP/TYPE emitted once per family, histograms as cumulative
// `_bucket{le=...}` series plus `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, m := range ms {
		if m.name != lastFamily {
			if m.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", m.name, escapeHelp(m.help))
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
			lastFamily = m.name
		}
		scale := m.scale
		if scale == 0 {
			scale = 1
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s%s %s\n", m.name, labelString(m.labels),
				formatValue(float64(m.c.Value())*scale))
		case kindGauge:
			v := 0.0
			if m.gf != nil {
				v = m.gf()
			} else {
				v = m.g.Value()
			}
			fmt.Fprintf(bw, "%s%s %s\n", m.name, labelString(m.labels), formatValue(v*scale))
		case kindHistogram:
			buckets := m.h.snapshot()
			var cum uint64
			for k, c := range buckets {
				cum += c
				// The last bucket clamps everything above it, so its
				// true upper bound is +Inf; emitting a finite le there
				// would lie about the distribution.
				if k == len(buckets)-1 {
					break
				}
				le := formatValue(float64(bucketUpper(k)) * scale)
				fmt.Fprintf(bw, "%s_bucket%s %d\n", m.name,
					labelString(m.labels, Label{"le", le}), cum)
			}
			// +Inf and _count come from the same bucket snapshot (not
			// the separate count atomic) so a scrape racing Observe
			// can never emit non-monotone buckets.
			fmt.Fprintf(bw, "%s_bucket%s %d\n", m.name,
				labelString(m.labels, Label{"le", "+Inf"}), cum)
			fmt.Fprintf(bw, "%s_sum%s %s\n", m.name, labelString(m.labels),
				formatValue(float64(m.h.Sum())*scale))
			fmt.Fprintf(bw, "%s_count%s %d\n", m.name, labelString(m.labels), cum)
		}
	}
	return bw.Flush()
}

// Sample is one parsed exposition line: a fully-qualified series name
// (including _bucket/_sum/_count suffixes), its label set, and value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one parsed metric family: the TYPE line's name and type
// plus every sample that belongs to it.
type Family struct {
	Name    string
	Type    string
	Help    string
	Samples []Sample
}

// ParseExposition strictly parses Prometheus text-format exposition:
// it validates metric and label names, label-value escaping, TYPE
// lines preceding their samples, duplicate series, and — for
// histograms — bucket monotonicity, the mandatory +Inf bucket, and
// +Inf == _count agreement. It returns families keyed by name.
//
// The serve daemon's own /metrics output round-trips through this
// parser in tests, and cmd/lbd reuses it to validate scrapes in CI.
func ParseExposition(text string) (map[string]*Family, error) {
	fams := make(map[string]*Family)
	seen := make(map[string]bool)
	lineNo := 0
	for _, line := range strings.Split(text, "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseMetaLine(line, fams); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		key := seriesKeyOfSample(s)
		if seen[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, clip(line))
		}
		seen[key] = true
		fam := familyOf(fams, s.Name)
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %q has no preceding TYPE line", lineNo, s.Name)
		}
		fam.Samples = append(fam.Samples, s)
	}
	for _, f := range fams {
		if err := validateFamily(f); err != nil {
			return nil, err
		}
	}
	return fams, nil
}

func parseMetaLine(line string, fams map[string]*Family) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil // free-form comment
	}
	switch fields[1] {
	case "TYPE":
		name, typ := fields[2], ""
		if len(fields) == 4 {
			typ = fields[3]
		}
		if !validName(name) {
			return fmt.Errorf("invalid metric name %q in TYPE line", clip(name))
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("invalid type %q for %q", clip(typ), name)
		}
		if f, ok := fams[name]; ok && f.Type != "" {
			return fmt.Errorf("duplicate TYPE line for %q", name)
		}
		f := fams[name]
		if f == nil {
			f = &Family{Name: name}
			fams[name] = f
		}
		f.Type = typ
	case "HELP":
		name := fields[2]
		if !validName(name) {
			return fmt.Errorf("invalid metric name %q in HELP line", clip(name))
		}
		f := fams[name]
		if f == nil {
			f = &Family{Name: name}
			fams[name] = f
		}
		if len(fields) == 4 {
			f.Help = fields[3]
		}
	}
	return nil
}

// familyOf resolves the family a sample belongs to, stripping
// histogram/summary suffixes when the base family is typed that way.
func familyOf(fams map[string]*Family, sample string) *Family {
	if f, ok := fams[sample]; ok && f.Type != "" {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suf)
		if base == sample {
			continue
		}
		if f, ok := fams[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return f
		}
	}
	return nil
}

func seriesKeyOfSample(s Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := s.Name
	for _, k := range keys {
		out += "\x00" + k + "\x01" + s.Labels[k]
	}
	return out
}

// parseSampleLine parses `name{k="v",...} value [timestamp]`.
func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.Name = line[:i]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", clip(s.Name))
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, err
		}
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " ")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("expected value [timestamp] after series, got %q", clip(rest))
	}
	v, err := parseFloatProm(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", clip(fields[0]), err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", clip(fields[1]))
		}
	}
	return s, nil
}

func parseFloatProm(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		// The cause alone (syntax or range): strconv's error repeats
		// the whole token, and the caller names it already.
		return 0, errors.Unwrap(err)
	}
	return v, nil
}

// clip shortens a token of the input for an error message, so that a
// parse error names what is wrong without echoing (and, under %q,
// expanding) a whole malformed line.
func clip(s string) string {
	const max = 64
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}

// parseLabels parses the {k="v",...} block at the start of s into
// out, returning the index one past the closing brace.
func parseLabels(s string, out map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i == len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		key := strings.TrimSpace(s[start:i])
		if !validName(key) {
			return 0, fmt.Errorf("invalid label name %q", clip(key))
		}
		i++ // past '='
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label %s: expected quoted value", key)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("label %s: unterminated value", key)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("label %s: dangling escape", key)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case 'n':
					val.WriteByte('\n')
				case '"':
					val.WriteByte('"')
				default:
					return 0, fmt.Errorf("label %s: invalid escape \\%c", key, s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := out[key]; dup {
			return 0, fmt.Errorf("duplicate label %q", key)
		}
		out[key] = val.String()
		if i < len(s) && s[i] == ',' {
			i++
			continue
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		return 0, fmt.Errorf("expected ',' or '}' after label %s", key)
	}
}

// validateFamily enforces per-type invariants: counters non-negative,
// histogram buckets monotone in le with a +Inf bucket matching
// _count.
func validateFamily(f *Family) error {
	switch f.Type {
	case "counter":
		for _, s := range f.Samples {
			if s.Value < 0 {
				return fmt.Errorf("family %s: counter sample %s is negative (%g)", f.Name, s.Name, s.Value)
			}
		}
	case "histogram":
		// Group bucket samples by their non-le label set.
		buckets := map[string][]Sample{}
		counts := map[string]float64{}
		for _, s := range f.Samples {
			switch s.Name {
			case f.Name + "_bucket":
				rest := Sample{Name: s.Name, Labels: map[string]string{}}
				for k, v := range s.Labels {
					if k != "le" {
						rest.Labels[k] = v
					}
				}
				key := seriesKeyOfSample(rest)
				buckets[key] = append(buckets[key], s)
			case f.Name + "_count":
				counts[seriesKeyOfSample(s)] = s.Value
			case f.Name + "_sum":
			default:
				return fmt.Errorf("family %s: unexpected sample name %s", f.Name, s.Name)
			}
		}
		for key, bs := range buckets {
			sort.Slice(bs, func(i, j int) bool {
				li, _ := parseFloatProm(bs[i].Labels["le"])
				lj, _ := parseFloatProm(bs[j].Labels["le"])
				return li < lj
			})
			prev := -1.0
			prevLe := math.Inf(-1)
			sawInf := false
			for _, b := range bs {
				le, err := parseFloatProm(b.Labels["le"])
				if err != nil {
					return fmt.Errorf("family %s: bad le %q", f.Name, clip(b.Labels["le"]))
				}
				if le <= prevLe {
					return fmt.Errorf("family %s: duplicate le %g", f.Name, le)
				}
				if b.Value < prev {
					return fmt.Errorf("family %s: bucket counts not monotone at le=%g (%g < %g)",
						f.Name, le, b.Value, prev)
				}
				prev, prevLe = b.Value, le
				sawInf = sawInf || math.IsInf(le, 1)
			}
			if !sawInf {
				return fmt.Errorf("family %s: histogram missing +Inf bucket", f.Name)
			}
			countKey := strings.Replace(key, f.Name+"_bucket", f.Name+"_count", 1)
			if c, ok := counts[countKey]; ok && c != prev {
				return fmt.Errorf("family %s: +Inf bucket (%g) != _count (%g)", f.Name, prev, c)
			}
		}
	}
	return nil
}

// RequireSeries checks that every named series (family name, before
// any _bucket/_sum/_count suffix) is present in a parsed exposition,
// returning an error naming the first one missing.
func RequireSeries(fams map[string]*Family, names ...string) error {
	for _, n := range names {
		f, ok := fams[n]
		if !ok || len(f.Samples) == 0 {
			return fmt.Errorf("exposition is missing required series %q", n)
		}
	}
	return nil
}

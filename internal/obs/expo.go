package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition sample: a metric name (possibly a
// histogram's derived _bucket/_sum/_count name), a canonical label string,
// and a value.
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// Scrape is one parsed exposition page.
type Scrape struct {
	// Types maps family name → TYPE (counter, gauge, histogram).
	Types map[string]string
	// Help maps family name → HELP text.
	Help    map[string]string
	Samples []Sample
}

// ParseText parses Prometheus text exposition format (the subset this
// package emits: HELP/TYPE comments and `name[{labels}] value` samples).
func ParseText(b []byte) (*Scrape, error) {
	sc := &Scrape{Types: make(map[string]string), Help: make(map[string]string)}
	for ln, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// A HELP or TYPE comment names a family; one that names none
			// (a doubled space) is an ordinary comment.
			parts := strings.SplitN(line, " ", 4)
			if len(parts) >= 4 && parts[2] != "" {
				switch parts[1] {
				case "HELP":
					sc.Help[parts[2]] = parts[3]
				case "TYPE":
					sc.Types[parts[2]] = strings.TrimSpace(parts[3])
				}
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", ln+1, err)
		}
		sc.Samples = append(sc.Samples, s)
	}
	return sc, nil
}

// parseSample parses one `name[{labels}] value` line, canonicalizing the
// label order.
func parseSample(line string) (Sample, error) {
	name := line
	labels := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return Sample{}, fmt.Errorf("unbalanced label braces in %q", line)
		}
		name = line[:i]
		var err error
		labels, err = canonLabels(line[i+1 : j])
		if err != nil {
			return Sample{}, err
		}
		line = name + " " + strings.TrimSpace(line[j+1:])
	}
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return Sample{}, fmt.Errorf("malformed sample %q", line)
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Sample{}, fmt.Errorf("bad value in %q: %v", line, err)
	}
	return Sample{Name: fields[0], Labels: labels, Value: v}, nil
}

// canonLabels re-renders a label body (`a="x",b="y"`) in sorted canonical
// form. Label values may hold commas, braces and escaped quotes.
func canonLabels(body string) (string, error) {
	body = strings.TrimSpace(body)
	if body == "" {
		return "", nil
	}
	var labels []Label
	for _, pair := range splitPairs(body) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return "", fmt.Errorf("malformed label %q", pair)
		}
		uq, err := strconv.Unquote(strings.TrimSpace(v))
		if err != nil {
			return "", fmt.Errorf("malformed label value %q: %v", v, err)
		}
		k = strings.TrimSpace(k)
		if !validLabelKey(k) {
			return "", fmt.Errorf("malformed label name %q", k)
		}
		labels = append(labels, Label{Key: k, Value: uq})
	}
	return renderLabels(labels), nil
}

// validLabelKey reports whether k is a label name in the exposition
// grammar, [a-zA-Z_][a-zA-Z0-9_]*. Keys render unquoted, so one holding a
// quote or a comma would not survive Fleet.Text.
func validLabelKey(k string) bool {
	for i := 0; i < len(k); i++ {
		c := k[i]
		letter := c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
		digit := '0' <= c && c <= '9'
		if !letter && !(digit && i > 0) {
			return false
		}
	}
	return k != ""
}

// splitPairs splits a label body on commas outside quotes; inside quotes a
// backslash escapes the next byte, as in the %q form renderLabels writes.
func splitPairs(body string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			depth = !depth
		case '\\':
			if depth {
				i++
			}
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	return append(out, body[start:])
}

// Fleet aggregates exposition pages from many sources (one scrape per
// agent) into fleet-level families: samples with the same name and label
// set sum. Histogram derived samples (_bucket/_sum/_count) sum too, which
// is exactly histogram merging. `macedon deploy` feeds each agent's
// /metrics page in and renders the aggregate through the same report path
// the emulator uses.
type Fleet struct {
	types map[string]string
	help  map[string]string
	vals  map[string]float64 // "name labels" → summed value
	order []string
}

// NewFleet returns an empty aggregation.
func NewFleet() *Fleet {
	return &Fleet{types: make(map[string]string), help: make(map[string]string), vals: make(map[string]float64)}
}

// Add folds one scrape into the aggregate.
func (f *Fleet) Add(sc *Scrape) {
	for n, t := range sc.Types {
		f.types[n] = t
	}
	for n, h := range sc.Help {
		f.help[n] = h
	}
	for _, s := range sc.Samples {
		key := s.Name + " " + s.Labels
		if _, ok := f.vals[key]; !ok {
			f.order = append(f.order, key)
		}
		f.vals[key] += s.Value
	}
}

// Families returns the sorted family names seen in TYPE lines.
func (f *Fleet) Families() []string {
	out := make([]string, 0, len(f.types))
	for n := range f.types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Text renders the aggregate in exposition format, sorted like
// Registry.Text: derived histogram samples group under their family's
// TYPE line.
func (f *Fleet) Text() string {
	keys := append([]string(nil), f.order...)
	sort.Slice(keys, func(i, j int) bool {
		fi, fj := familyOf(keys[i], f.types), familyOf(keys[j], f.types)
		if fi != fj {
			return fi < fj
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	lastFam := ""
	for _, key := range keys {
		name, labels, _ := strings.Cut(key, " ")
		fam := familyOf(key, f.types)
		if fam != lastFam {
			if h := f.help[fam]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", fam, h)
			}
			if t := f.types[fam]; t != "" {
				fmt.Fprintf(&b, "# TYPE %s %s\n", fam, t)
			}
			lastFam = fam
		}
		fmt.Fprintf(&b, "%s%s %s\n", name, labels, formatFloat(f.vals[key]))
	}
	return b.String()
}

// familyOf maps a sample key to its family name: histogram-derived names
// reduce to the base family when the base has a TYPE entry.
func familyOf(key string, types map[string]string) string {
	name, _, _ := strings.Cut(key, " ")
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if _, ok := types[base]; ok {
				return base
			}
		}
	}
	return name
}

package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// OpenMetrics exposition (ISSUE 10). The 0.0.4 text format cannot carry
// exemplars, so /metrics/prom content-negotiates: a scraper sending
// Accept: application/openmetrics-text gets this rendering — the same
// series as WritePromText/WritePromSLOs, plus per-bucket trace
// exemplars (`… # {trace_id="…"} value`) and the required # EOF
// terminator — while the default output stays byte-identical to the
// 0.0.4 exposition existing consumers pin.
//
// ValidateOpenMetrics is the matching Go-side grammar check: the
// exposition tests and the CI gateway smoke test run every scrape
// through it, so a malformed series (a label-escaping bug, an exemplar
// on a gauge, a sample outside its declared family) fails loudly
// instead of shipping.

// WriteOpenMetrics renders snapshots and SLOs in the OpenMetrics 1.0
// text format, terminated by # EOF.
func WriteOpenMetrics(w io.Writer, snaps []Snapshot, slos []SLOSnapshot) {
	writeFamilies(w, buildFamilies(snaps, true))
	// The SLO gauges' family names equal their sample names, so the
	// 0.0.4 rendering is already valid OpenMetrics.
	WritePromSLOs(w, slos)
	io.WriteString(w, "# EOF\n")
}

// omTypes are the metric types OpenMetrics 1.0 admits.
var omTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true,
	"gaugehistogram": true, "info": true, "stateset": true, "unknown": true,
}

// ValidateOpenMetrics parses an OpenMetrics text exposition and returns
// the first grammar violation found: malformed names or label syntax,
// samples outside a declared family or with the wrong suffix for the
// family's type, histogram buckets without le, exemplars on sample
// types that cannot carry them, a missing # EOF, or content after it.
func ValidateOpenMetrics(data []byte) error {
	types := map[string]string{}
	lines := strings.Split(string(data), "\n")
	sawEOF := false
	for i, line := range lines {
		lineNo := i + 1
		if line == "" {
			// Only the split artifact after the final newline is legal.
			if i != len(lines)-1 {
				return fmt.Errorf("openmetrics: line %d: empty line", lineNo)
			}
			continue
		}
		if sawEOF {
			return fmt.Errorf("openmetrics: line %d: content after # EOF", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				sawEOF = true
				continue
			}
			if err := omMeta(line, types); err != nil {
				return fmt.Errorf("openmetrics: line %d: %w", lineNo, err)
			}
			continue
		}
		if err := omSample(line, types); err != nil {
			return fmt.Errorf("openmetrics: line %d: %w", lineNo, err)
		}
	}
	if !sawEOF {
		return fmt.Errorf("openmetrics: missing # EOF terminator")
	}
	return nil
}

// omMeta validates one metadata line (# TYPE / # HELP / # UNIT).
func omMeta(line string, types map[string]string) error {
	rest, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return fmt.Errorf("malformed comment %q (OpenMetrics comments are metadata only)", line)
	}
	kw, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return fmt.Errorf("truncated metadata line %q", line)
	}
	name, val, _ := strings.Cut(rest, " ")
	if !omValidName(name) {
		return fmt.Errorf("invalid metric family name %q", name)
	}
	switch kw {
	case "TYPE":
		if !omTypes[val] {
			return fmt.Errorf("unknown metric type %q for family %q", val, name)
		}
		if _, dup := types[name]; dup {
			return fmt.Errorf("duplicate TYPE for family %q", name)
		}
		types[name] = val
	case "HELP", "UNIT":
		// Free text / unit string; nothing further to check.
	default:
		return fmt.Errorf("unknown metadata keyword %q", kw)
	}
	return nil
}

// omSample validates one sample line against the declared families.
func omSample(line string, types map[string]string) error {
	name, rest := omScanName(line)
	if name == "" {
		return fmt.Errorf("sample has no metric name: %q", line)
	}
	labels, rest, err := omScanLabels(rest)
	if err != nil {
		return fmt.Errorf("%w in %q", err, line)
	}
	if !strings.HasPrefix(rest, " ") {
		return fmt.Errorf("missing space before value in %q", line)
	}
	rest = rest[1:]
	// Value, optional timestamp, optional exemplar.
	valStr, rest := omScanToken(rest)
	if _, err := strconv.ParseFloat(valStr, 64); err != nil {
		return fmt.Errorf("invalid sample value %q in %q", valStr, line)
	}
	hasExemplar := false
	if rest != "" {
		ts, after, found := omCutExemplar(rest)
		if ts != "" {
			if _, err := strconv.ParseFloat(ts, 64); err != nil {
				return fmt.Errorf("invalid timestamp %q in %q", ts, line)
			}
		}
		if found {
			hasExemplar = true
			exLabels, exRest, err := omScanLabels(after)
			if err != nil || len(exLabels) == 0 {
				return fmt.Errorf("malformed exemplar in %q", line)
			}
			if !strings.HasPrefix(exRest, " ") {
				return fmt.Errorf("exemplar missing value in %q", line)
			}
			exVal, exTS := omScanToken(exRest[1:])
			if _, err := strconv.ParseFloat(exVal, 64); err != nil {
				return fmt.Errorf("invalid exemplar value %q in %q", exVal, line)
			}
			if exTS = strings.TrimSpace(exTS); exTS != "" {
				if _, err := strconv.ParseFloat(exTS, 64); err != nil {
					return fmt.Errorf("invalid exemplar timestamp %q in %q", exTS, line)
				}
			}
		}
	}
	// Resolve the sample to its declared family and check the suffix is
	// legal for the family's type.
	fam, suffix := omFamilyOf(name, types)
	if fam == "" {
		return fmt.Errorf("sample %q belongs to no declared family", name)
	}
	typ := types[fam]
	switch typ {
	case "counter":
		if suffix != "_total" && suffix != "_created" {
			return fmt.Errorf("counter family %q cannot have sample %q", fam, name)
		}
	case "gauge", "unknown", "info", "stateset":
		if suffix != "" {
			return fmt.Errorf("%s family %q cannot have sample %q", typ, fam, name)
		}
	case "histogram", "gaugehistogram":
		switch suffix {
		case "_bucket":
			le, ok := labels["le"]
			if !ok {
				return fmt.Errorf("histogram bucket %q has no le label", line)
			}
			if _, err := strconv.ParseFloat(le, 64); err != nil {
				return fmt.Errorf("invalid le value %q in %q", le, line)
			}
		case "_sum", "_count", "_created", "_gsum", "_gcount":
		default:
			return fmt.Errorf("histogram family %q cannot have sample %q", fam, name)
		}
	case "summary":
		if suffix != "" && suffix != "_sum" && suffix != "_count" && suffix != "_created" {
			return fmt.Errorf("summary family %q cannot have sample %q", fam, name)
		}
	}
	if hasExemplar && suffix != "_bucket" && suffix != "_total" {
		return fmt.Errorf("exemplar on a sample that cannot carry one: %q", line)
	}
	return nil
}

// omFamilyOf maps a sample name onto a declared family: the exact name,
// or the name minus a recognised suffix.
func omFamilyOf(name string, types map[string]string) (fam, suffix string) {
	if _, ok := types[name]; ok {
		return name, ""
	}
	for _, s := range []string{"_total", "_bucket", "_sum", "_count", "_created", "_gsum", "_gcount"} {
		if base, ok := strings.CutSuffix(name, s); ok {
			if _, declared := types[base]; declared {
				return base, s
			}
		}
	}
	return "", ""
}

// omValidName reports whether a string is a legal OpenMetrics metric
// name ([a-zA-Z_][a-zA-Z0-9_]*).
func omValidName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// omScanName splits a leading metric name off a sample line.
func omScanName(line string) (name, rest string) {
	i := 0
	for i < len(line) {
		c := line[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || (i > 0 && c >= '0' && c <= '9') {
			i++
			continue
		}
		break
	}
	return line[:i], line[i:]
}

// omScanLabels parses an optional {label="value",…} block, honouring
// the \\, \", and \n escapes, and rejects duplicate label names.
func omScanLabels(s string) (map[string]string, string, error) {
	if !strings.HasPrefix(s, "{") {
		return nil, s, nil
	}
	s = s[1:]
	labels := map[string]string{}
	for {
		if strings.HasPrefix(s, "}") {
			if len(labels) == 0 {
				// `{}` is legal per the ABNF (empty labelset).
				return labels, s[1:], nil
			}
			return labels, s[1:], nil
		}
		name, rest := omScanName(s)
		if name == "" {
			return nil, s, fmt.Errorf("invalid label name")
		}
		if _, dup := labels[name]; dup {
			return nil, s, fmt.Errorf("duplicate label %q", name)
		}
		if !strings.HasPrefix(rest, "=\"") {
			return nil, s, fmt.Errorf("label %q missing quoted value", name)
		}
		rest = rest[2:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return nil, s, fmt.Errorf("truncated escape in label %q", name)
				}
				i++
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, s, fmt.Errorf("invalid escape \\%c in label %q", rest[i], name)
				}
				continue
			}
			if c == '"' {
				labels[name] = val.String()
				rest = rest[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, s, fmt.Errorf("unterminated value for label %q", name)
		}
		if strings.HasPrefix(rest, ",") {
			s = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		return nil, s, fmt.Errorf("malformed label separator after %q", name)
	}
}

// omScanToken splits the next space-delimited token.
func omScanToken(s string) (tok, rest string) {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// omCutExemplar splits an optional timestamp from the " # " exemplar
// marker: the input is everything after the sample value.
func omCutExemplar(s string) (ts, after string, found bool) {
	if cut, rest, ok := strings.Cut(s, "# "); ok {
		return strings.TrimSpace(cut), rest, true
	}
	return strings.TrimSpace(s), "", false
}

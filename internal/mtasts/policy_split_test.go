package mtasts

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parsePolicySplit is ParsePolicy as it was before it walked the body
// with strings.Cut: it copies the body twice and splits it into a slice
// of lines. It is kept, unchanged, as the reference the differential
// test holds ParsePolicy to.
func parsePolicySplit(body []byte) (Policy, error) {
	var p Policy
	if len(body) > MaxPolicySize {
		return p, fmt.Errorf("%w: %d bytes", ErrPolicyTooLarge, len(body))
	}
	if len(strings.TrimSpace(string(body))) == 0 {
		// The empty policy files served by opted-out delegation providers
		// (§5) land here.
		return p, ErrEmptyPolicy
	}
	for _, b := range body {
		if b > 0x7E || (b < 0x20 && b != '\r' && b != '\n' && b != '\t') {
			return p, fmt.Errorf("%w: byte %#x", ErrPolicyBadCharset, b)
		}
	}
	text := string(body)
	lines := strings.Split(text, "\n")
	seen := map[string]bool{}
	var maxAgeSet bool
	for i, line := range lines {
		line = strings.TrimSuffix(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return p, fmt.Errorf("%w: line %d %q", ErrPolicyLine, i+1, clip(line))
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "version":
			if seen[key] {
				return p, fmt.Errorf("%w: version", ErrPolicyDuplicate)
			}
			if value != Version {
				return p, fmt.Errorf("%w: %q", ErrPolicyVersion, clip(value))
			}
			p.Version = value
		case "mode":
			if seen[key] {
				return p, fmt.Errorf("%w: mode", ErrPolicyDuplicate)
			}
			m := Mode(value)
			if !m.Valid() {
				return p, fmt.Errorf("%w: %q", ErrPolicyMode, clip(value))
			}
			p.Mode = m
		case "max_age":
			if seen[key] {
				return p, fmt.Errorf("%w: max_age", ErrPolicyDuplicate)
			}
			n, err := parseMaxAge(value)
			if err != nil {
				return p, err
			}
			p.MaxAge = n
			maxAgeSet = true
		case "mx":
			if err := CheckMXPattern(value); err != nil {
				return p, err
			}
			p.MXPatterns = append(p.MXPatterns, strings.ToLower(value))
		default:
			if !validExtName(key) {
				return p, fmt.Errorf("%w: line %d key %q", ErrPolicyLine, i+1, clip(key))
			}
			p.Extensions = append(p.Extensions, Field{Name: key, Value: value})
		}
		seen[key] = true
	}
	if p.Version == "" {
		return p, fmt.Errorf("%w: version absent", ErrPolicyVersion)
	}
	if p.Mode == "" {
		return p, fmt.Errorf("%w: mode absent", ErrPolicyMode)
	}
	if !maxAgeSet {
		return p, fmt.Errorf("%w: max_age absent", ErrPolicyMaxAge)
	}
	if len(p.MXPatterns) == 0 && p.Mode != ModeNone {
		return p, ErrPolicyNoMX
	}
	return p, nil
}

// differsFromSplit says how ParsePolicy's (p, err) for body differs
// from parsePolicySplit's, or "" when the Policy and the error text are
// identical.
func differsFromSplit(body []byte, p Policy, err error) string {
	want, wantErr := parsePolicySplit(body)
	if !reflect.DeepEqual(p, want) {
		return fmt.Sprintf("ParsePolicy(%q) = %#v, the split parser %#v", body, p, want)
	}
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		return fmt.Sprintf("ParsePolicy(%q) error %v, the split parser %v", body, err, wantErr)
	}
	return ""
}

// TestParsePolicyMatchesSplit holds ParsePolicy to the parser it
// replaced, on the committed fuzz corpus, the fuzz seeds and generated
// bodies built from every line shape and ending the format has (CRLF,
// LF, lone CR, blank and whitespace lines, duplicate keys) and that
// reach every error ParsePolicy returns.
func TestParsePolicyMatchesSplit(t *testing.T) {
	var bodies [][]byte
	dir := filepath.Join("testdata", "fuzz", "FuzzParsePolicy")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lit, "[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")")
		body, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("corpus file %s: not a []byte literal: %v", f.Name(), err)
		}
		bodies = append(bodies, []byte(body))
	}
	if len(bodies) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	for _, s := range policySeeds {
		bodies = append(bodies, []byte(s))
	}

	lines := []string{
		"version: STSv1", "version:STSv1", "  version :  STSv1  ", "version: STSv2", "version:",
		"mode: enforce", "mode: testing", "mode: none", "mode: Enforce", "mode:",
		"max_age: 86400", "max_age: 0", "max_age:31557600", "max_age: 31557601", "max_age: -1",
		"max_age: 12345678901", "max_age: 1e5", "max_age:",
		"mx: mx.example.com", "mx: *.example.net", "mx: MX.Example.COM", "mx: a@b.example",
		"mx: trailing.example.", "mx: *.", "mx: single", "mx: a.*.example", "mx:", "mx: -bad.example",
		"ext: value", "x_1.y-2: v:w", "_bad: v", "ext",
		"no colon here", "", "   ", "\t", ": empty key", strings.Repeat("k", 40) + ": long key",
		"mx: " + strings.Repeat("a", 64) + ".example",
	}
	endings := []string{"\n", "\r\n", "\r", ""}
	rng := rand.New(rand.NewPCG(1, 2))
	// Half the bodies start from a valid policy's lines, shuffled, so
	// the valid and no-mx outcomes are reached as often as the errors.
	skeleton := []string{"version: STSv1", "mode: testing", "max_age: 86400", "mx: mx.example.com"}
	for i := 0; i < 20000; i++ {
		var picked []string
		if i%2 == 0 {
			picked = append(picked, skeleton[:3+rng.IntN(2)]...)
		}
		for n := rng.IntN(5 + 4*(i%2)); n > 0; n-- {
			picked = append(picked, lines[rng.IntN(len(lines))])
		}
		rng.Shuffle(len(picked), func(a, b int) { picked[a], picked[b] = picked[b], picked[a] })
		var b strings.Builder
		for _, l := range picked {
			b.WriteString(l)
			b.WriteString(endings[rng.IntN(len(endings))])
		}
		body := []byte(b.String())
		if len(body) > 0 && rng.IntN(20) == 0 {
			body[rng.IntN(len(body))] = []byte{0x00, 0x7f, 0xa0, 0x1b}[rng.IntN(4)]
		}
		bodies = append(bodies, body)
	}
	bodies = append(bodies,
		[]byte(" \r\n\t\n"), []byte("\u00a0"), []byte("\u00a0version: STSv1\n"),
		[]byte(strings.Repeat("mx: filler.example\n", MaxPolicySize/19+1)),
	)

	sentinels := []error{ErrEmptyPolicy, ErrPolicyVersion, ErrPolicyMode, ErrPolicyMaxAge, ErrPolicyNoMX,
		ErrPolicyBadMX, ErrPolicyLine, ErrPolicyDuplicate, ErrPolicyTooLarge, ErrPolicyBadCharset}
	hit := make(map[error]int)
	valid := 0
	for _, body := range bodies {
		p, err := ParsePolicy(body)
		if msg := differsFromSplit(body, p, err); msg != "" {
			t.Fatal(msg)
		}
		if err == nil {
			valid++
		}
		for _, s := range sentinels {
			if errors.Is(err, s) {
				hit[s]++
			}
		}
	}
	for _, s := range sentinels {
		if hit[s] == 0 {
			t.Errorf("no body reached %v", s)
		}
	}
	if valid == 0 {
		t.Error("no body parsed as a valid policy")
	}
	t.Logf("%d bodies, %d valid, errors reached: %v", len(bodies), valid, hit)
}

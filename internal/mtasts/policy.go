package mtasts

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/netsecurelab/mtasts/internal/errtax"
)

// Mode is the sender behavior a policy requests on validation failure.
type Mode string

// The three modes of RFC 8461 §3.2.
const (
	// ModeEnforce: sending MTAs MUST NOT deliver to hosts that fail
	// MX matching or TLS validation.
	ModeEnforce Mode = "enforce"
	// ModeTesting: validate and report, but deliver anyway.
	ModeTesting Mode = "testing"
	// ModeNone: no active policy; deliver as if MTA-STS were absent.
	ModeNone Mode = "none"
)

// Valid reports whether m is one of the three defined modes.
func (m Mode) Valid() bool {
	return m == ModeEnforce || m == ModeTesting || m == ModeNone
}

// MaxMaxAge is the largest max_age RFC 8461 allows (about one year).
const MaxMaxAge = 31557600

// Policy parse/semantic error kinds (the §4.3.3 "Policy Syntax"
// taxonomy), typed into the policy-retrieval category of the scan error
// taxonomy (docs/ERRORS.md). Version and mx-pattern failures carry their
// own codes because the paper tabulates them separately; every other
// parse failure shares the generic parse code. All are persistent.
var (
	ErrEmptyPolicy      = errtax.New(errtax.LayerFetch, errtax.CodeParse, false, "mtasts: empty policy file")
	ErrPolicyVersion    = errtax.New(errtax.LayerFetch, errtax.CodeVersionMismatch, false, "mtasts: missing or invalid policy version")
	ErrPolicyMode       = errtax.New(errtax.LayerFetch, errtax.CodeParse, false, "mtasts: missing or invalid mode")
	ErrPolicyMaxAge     = errtax.New(errtax.LayerFetch, errtax.CodeParse, false, "mtasts: missing or invalid max_age")
	ErrPolicyNoMX       = errtax.New(errtax.LayerFetch, errtax.CodeBadMXPattern, false, "mtasts: no mx entry in enforce/testing policy")
	ErrPolicyBadMX      = errtax.New(errtax.LayerFetch, errtax.CodeBadMXPattern, false, "mtasts: invalid mx pattern")
	ErrPolicyLine       = errtax.New(errtax.LayerFetch, errtax.CodeParse, false, "mtasts: malformed policy line")
	ErrPolicyDuplicate  = errtax.New(errtax.LayerFetch, errtax.CodeParse, false, "mtasts: duplicate policy field")
	ErrPolicyTooLarge   = errtax.New(errtax.LayerFetch, errtax.CodeParse, false, "mtasts: policy file exceeds size limit")
	ErrPolicyNotCRLF    = errtax.New(errtax.LayerFetch, errtax.CodeParse, false, "mtasts: policy lines not terminated by LF/CRLF")
	ErrPolicyBadCharset = errtax.New(errtax.LayerFetch, errtax.CodeParse, false, "mtasts: policy contains non-ASCII bytes")
)

// MaxPolicySize is the largest policy body the fetcher accepts (RFC 8461
// recommends senders enforce a sane cap; 64 KiB matches common MTAs).
const MaxPolicySize = 64 * 1024

// Policy is a parsed MTA-STS policy file.
type Policy struct {
	Version string
	Mode    Mode
	// MaxAge is the cache lifetime in seconds.
	MaxAge int64
	// MXPatterns are the allowed MX patterns, in file order. Patterns may
	// begin with "*." to match exactly one leftmost label.
	MXPatterns []string
	// Extensions preserves unrecognized fields.
	Extensions []Field
}

// String serializes the policy in canonical CRLF-terminated form.
func (p Policy) String() string {
	n := len("version: \r\nmode: \r\nmax_age: \r\n") + len(p.Version) + len(p.Mode) + 20
	for _, mx := range p.MXPatterns {
		n += len("mx: \r\n") + len(mx)
	}
	for _, f := range p.Extensions {
		n += len(": \r\n") + len(f.Name) + len(f.Value)
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteString("version: ")
	sb.WriteString(p.Version)
	sb.WriteString("\r\nmode: ")
	sb.WriteString(string(p.Mode))
	sb.WriteString("\r\n")
	for _, mx := range p.MXPatterns {
		sb.WriteString("mx: ")
		sb.WriteString(mx)
		sb.WriteString("\r\n")
	}
	sb.WriteString("max_age: ")
	var num [20]byte
	sb.Write(strconv.AppendInt(num[:0], p.MaxAge, 10))
	sb.WriteString("\r\n")
	for _, f := range p.Extensions {
		sb.WriteString(f.Name)
		sb.WriteString(": ")
		sb.WriteString(f.Value)
		sb.WriteString("\r\n")
	}
	return sb.String()
}

// ParsePolicy parses a policy file body per RFC 8461 §3.2. It enforces:
// exactly one version/mode/max_age, version "STSv1", a known mode, numeric
// max_age within [0, MaxMaxAge], at least one syntactically valid mx when
// the mode is enforce or testing, and ASCII content. The body is copied
// once, and the lines are walked in place.
func ParsePolicy(body []byte) (Policy, error) {
	var p Policy
	if len(body) > MaxPolicySize {
		return p, fmt.Errorf("%w: %d bytes", ErrPolicyTooLarge, len(body))
	}
	text := string(body)
	if len(strings.TrimSpace(text)) == 0 {
		// The empty policy files served by opted-out delegation providers
		// (§5) land here.
		return p, ErrEmptyPolicy
	}
	for _, b := range body {
		if b > 0x7E || (b < 0x20 && b != '\r' && b != '\n' && b != '\t') {
			return p, fmt.Errorf("%w: byte %#x", ErrPolicyBadCharset, b)
		}
	}
	var maxAgeSet bool
	for i, rest, more := 1, text, true; more; i++ {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		line = strings.TrimSuffix(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return p, fmt.Errorf("%w: line %d %q", ErrPolicyLine, i, clip(line))
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		switch key {
		case "version":
			if p.Version != "" {
				return p, fmt.Errorf("%w: version", ErrPolicyDuplicate)
			}
			if value != Version {
				return p, fmt.Errorf("%w: %q", ErrPolicyVersion, clip(value))
			}
			p.Version = value
		case "mode":
			if p.Mode != "" {
				return p, fmt.Errorf("%w: mode", ErrPolicyDuplicate)
			}
			m := Mode(value)
			if !m.Valid() {
				return p, fmt.Errorf("%w: %q", ErrPolicyMode, clip(value))
			}
			p.Mode = m
		case "max_age":
			if maxAgeSet {
				return p, fmt.Errorf("%w: max_age", ErrPolicyDuplicate)
			}
			n, err := parseMaxAge(value)
			if err != nil {
				return p, err
			}
			p.MaxAge, maxAgeSet = n, true
		case "mx":
			if err := CheckMXPattern(value); err != nil {
				return p, err
			}
			p.MXPatterns = append(p.MXPatterns, strings.ToLower(value))
		default:
			if !validExtName(key) {
				return p, fmt.Errorf("%w: line %d key %q", ErrPolicyLine, i, clip(key))
			}
			p.Extensions = append(p.Extensions, Field{Name: key, Value: value})
		}
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

func parseMaxAge(value string) (int64, error) {
	if value == "" || len(value) > 10 {
		return 0, fmt.Errorf("%w: %q", ErrPolicyMaxAge, clip(value))
	}
	var n int64
	for i := 0; i < len(value); i++ {
		c := value[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("%w: %q", ErrPolicyMaxAge, clip(value))
		}
		n = n*10 + int64(c-'0')
	}
	if n > MaxMaxAge {
		return 0, fmt.Errorf("%w: %d exceeds maximum %d", ErrPolicyMaxAge, n, MaxMaxAge)
	}
	return n, nil
}

// CheckMXPattern validates one mx pattern: a hostname of LDH labels,
// optionally prefixed by "*." (wildcard covering exactly one label). The
// malformed patterns the paper observed — email addresses, trailing dots,
// empty values — are all rejected here.
func CheckMXPattern(pattern string) error {
	if pattern == "" {
		return fmt.Errorf("%w: empty pattern", ErrPolicyBadMX)
	}
	host := pattern
	if rest, ok := strings.CutPrefix(host, "*."); ok {
		host = rest
		if host == "" {
			return fmt.Errorf("%w: %q", ErrPolicyBadMX, pattern)
		}
	}
	if strings.Contains(host, "*") {
		return fmt.Errorf("%w: wildcard only allowed as leftmost label: %q", ErrPolicyBadMX, pattern)
	}
	if strings.ContainsAny(host, "@/ \t") {
		return fmt.Errorf("%w: %q", ErrPolicyBadMX, pattern)
	}
	if strings.HasSuffix(host, ".") {
		return fmt.Errorf("%w: trailing dot in %q", ErrPolicyBadMX, pattern)
	}
	if len(host) > 253 {
		return fmt.Errorf("%w: %q too long", ErrPolicyBadMX, pattern)
	}
	labels := strings.Split(host, ".")
	if len(labels) < 2 {
		return fmt.Errorf("%w: %q has a single label", ErrPolicyBadMX, pattern)
	}
	for _, l := range labels {
		if !validLDHLabel(l) {
			return fmt.Errorf("%w: label %q in %q", ErrPolicyBadMX, clip(l), pattern)
		}
	}
	return nil
}

func validLDHLabel(l string) bool {
	if l == "" || len(l) > 63 {
		return false
	}
	for i := 0; i < len(l); i++ {
		c := l[i]
		alnum := 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
		if !alnum && c != '-' && c != '_' {
			return false
		}
	}
	return l[0] != '-' && l[len(l)-1] != '-'
}

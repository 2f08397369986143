package service

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSON form of the /v2/plan message pair, written by hand. The Go
// client renders its PlanRequest and parses the PlanResponse here, the
// server parses a request body it has not seen here, and it renders a
// plan's fill-time body with the same appenders, so the served round trip
// never enters encoding/json's reflection. encoding/json is the reference,
// byte for byte: the appenders write exactly what json.Marshal (and
// json.Encoder.Encode, for the request) writes, parsePlanResponse returns
// exactly what json.Unmarshal returns, failing wherever it fails, and
// parsePlanRequest returns exactly what the server's strict decode
// (decodeStrict) returns or declines the body, which then goes to that
// decode (FuzzPlanResponseJSON, FuzzPlanRequestJSON, FuzzParsePlanResponse,
// FuzzDecodePlanRequest). Every other body — autotune, batch, stats and
// error envelopes — and every declined request stays with encoding/json.

// appendJSONString appends s quoted as encoding/json renders a string with
// HTML escaping on: <, > and & as backslash-u003c, -u003e and -u0026; control bytes
// escaped; invalid UTF-8 as backslash-ufffd; U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		} else if r == 0x2028 || r == 0x2029 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json renders a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21 on,
// with the exponent unpadded. NaN and the infinities fail as they fail
// json.Marshal.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendJSONInts appends an int slice as a JSON array, or null for nil.
func appendJSONInts(b []byte, v []int) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendPlanResponseJSON appends r as json.Marshal renders it and reports
// where the senders array's elements start and end in the result (equal
// when it is empty; meaningless when Senders is nil). On error b is
// returned as it was.
func appendPlanResponseJSON(b []byte, r *PlanResponse) (out []byte, sendersStart, sendersEnd int, err error) {
	b0 := len(b)
	b = append(b, `{"strategy":`...)
	b = appendJSONString(b, r.Strategy)
	b = append(b, `,"scheduler":`...)
	b = appendJSONString(b, r.Scheduler)
	b = append(b, `,"num_units":`...)
	b = strconv.AppendInt(b, int64(r.NumUnits), 10)
	b = append(b, `,"senders":`...)
	sendersStart = len(b) + 1
	b = appendJSONInts(b, r.Senders)
	sendersEnd = len(b) - 1
	b = append(b, `,"order":`...)
	b = appendJSONInts(b, r.Order)
	b = append(b, `,"makespan_seconds":`...)
	if b, err = appendJSONFloat(b, r.MakespanSeconds); err != nil {
		return b[:b0], 0, 0, err
	}
	b = append(b, `,"effective_gbps":`...)
	if b, err = appendJSONFloat(b, r.EffectiveGbps); err != nil {
		return b[:b0], 0, 0, err
	}
	b = append(b, `,"num_ops":`...)
	b = strconv.AppendInt(b, int64(r.NumOps), 10)
	b = append(b, `,"key":`...)
	b = appendJSONString(b, r.Key)
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	return append(b, '}'), sendersStart, sendersEnd, nil
}

// appendMember appends the key of an object member, after a comma unless
// the object, opened at start, is still empty: what encoding/json writes
// before a member that omitempty may have left first.
func appendMember(b []byte, start int, key string) []byte {
	if len(b) > start {
		b = append(b, ',')
	}
	return append(b, key...)
}

// appendPlanRequestJSON appends r as json.Encoder.Encode writes it,
// trailing newline included; members tagged omitempty are left out where
// encoding/json leaves them out. On error b is returned as it was, as
// Encode writes nothing then.
func appendPlanRequestJSON(b []byte, r *PlanRequest) ([]byte, error) {
	b0 := len(b)
	var err error
	b = append(b, `{"topology":{"name":`...)
	b = appendJSONString(b, r.Topology.Name)
	if r.Topology.Hosts != 0 {
		b = append(b, `,"hosts":`...)
		b = strconv.AppendInt(b, int64(r.Topology.Hosts), 10)
	}
	if r.Topology.Oversubscription != 0 {
		b = append(b, `,"oversubscription":`...)
		if b, err = appendJSONFloat(b, r.Topology.Oversubscription); err != nil {
			return b[:b0], err
		}
	}
	b = append(b, `},"shape":`...)
	b = appendJSONInts(b, r.Shape)
	if r.DType != "" {
		b = append(b, `,"dtype":`...)
		b = appendJSONString(b, r.DType)
	}
	b = appendEndpointJSON(append(b, `,"src":`...), r.Src)
	b = appendEndpointJSON(append(b, `,"dst":`...), r.Dst)
	b = append(b, `,"options":{`...)
	o, start := &r.Options, len(b)
	if o.Strategy != "" {
		b = appendJSONString(appendMember(b, start, `"strategy":`), o.Strategy)
	}
	if o.Scheduler != "" {
		b = appendJSONString(appendMember(b, start, `"scheduler":`), o.Scheduler)
	}
	if o.Chunks != 0 {
		b = strconv.AppendInt(appendMember(b, start, `"chunks":`), int64(o.Chunks), 10)
	}
	if o.DFSNodes != 0 {
		b = strconv.AppendInt(appendMember(b, start, `"dfs_nodes":`), int64(o.DFSNodes), 10)
	}
	if o.Trials != 0 {
		b = strconv.AppendInt(appendMember(b, start, `"trials":`), int64(o.Trials), 10)
	}
	if o.Seed != 0 {
		b = strconv.AppendInt(appendMember(b, start, `"seed":`), o.Seed, 10)
	}
	if o.Quality != "" {
		b = appendJSONString(appendMember(b, start, `"quality":`), o.Quality)
	}
	b = append(b, '}')
	if f := r.Faults; f != nil {
		if b, err = appendFaultsJSON(b, f); err != nil {
			return b[:b0], err
		}
	}
	return append(b, '}', '\n'), nil
}

func appendEndpointJSON(b []byte, e Endpoint) []byte {
	b = appendJSONString(append(b, `{"mesh":`...), e.Mesh)
	b = appendJSONString(append(b, `,"spec":`...), e.Spec)
	return append(b, '}')
}

// appendFaultsJSON appends the ,"faults":{...} member of a request.
func appendFaultsJSON(b []byte, f *FaultsRef) (_ []byte, err error) {
	b = append(b, `,"faults":{`...)
	start := len(b)
	if f.Scenario != "" {
		b = appendJSONString(append(b, `"scenario":`...), f.Scenario)
	}
	if len(f.Links) > 0 {
		b = append(appendMember(b, start, `"links":`), '[')
		for i, l := range f.Links {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"a":`...), int64(l.A), 10)
			b = strconv.AppendInt(append(b, `,"b":`...), int64(l.B), 10)
			if l.Down {
				b = append(b, `,"down":true`...)
			}
			if b, err = appendFloatMember(b, `,"bandwidth_scale":`, l.BandwidthScale); err != nil {
				return b, err
			}
			if b, err = appendFloatMember(b, `,"extra_latency_seconds":`, l.ExtraLatencySeconds); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(f.Hosts) > 0 {
		b = append(appendMember(b, start, `"hosts":`), '[')
		for i, h := range f.Hosts {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"host":`...), int64(h.Host), 10)
			if b, err = appendFloatMember(b, `,"nic_scale":`, h.NICScale); err != nil {
				return b, err
			}
			if b, err = appendFloatMember(b, `,"intra_scale":`, h.IntraScale); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendFloatMember appends an omitempty float member: nothing for zero.
func appendFloatMember(b []byte, key string, v float64) ([]byte, error) {
	if v == 0 {
		return b, nil
	}
	return appendJSONFloat(append(b, key...), v)
}

// maxJSONDepth is encoding/json's nesting limit: a document nested deeper
// is a syntax error there, so it is one here.
const maxJSONDepth = 10000

// jsonScan is a cursor over one JSON document; it validates everything it
// passes, skipped values included, by the grammar encoding/json's scanner
// enforces.
type jsonScan struct {
	data []byte
	off  int
}

func (s *jsonScan) fail(what string) error {
	return fmt.Errorf("service: plan JSON: %s at offset %d", what, s.off)
}

func (s *jsonScan) ws() {
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
		default:
			return
		}
	}
}

// next returns the byte at the cursor, 0 at the end (never valid there).
func (s *jsonScan) next() byte {
	if s.off < len(s.data) {
		return s.data[s.off]
	}
	return 0
}

// literal consumes one of true, false and null.
func (s *jsonScan) literal(lit string) error {
	if len(s.data)-s.off < len(lit) || string(s.data[s.off:s.off+len(lit)]) != lit {
		return s.fail("invalid literal")
	}
	s.off += len(lit)
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number consumes one number token and returns it; integer reports that it
// has no fraction or exponent.
func (s *jsonScan) number() (tok []byte, integer bool, err error) {
	start := s.off
	if s.next() == '-' {
		s.off++
	}
	switch c := s.next(); {
	case c == '0':
		s.off++
	case '1' <= c && c <= '9':
		for s.off++; isDigit(s.next()); s.off++ {
		}
	default:
		return nil, false, s.fail("invalid number")
	}
	integer = true
	if s.next() == '.' {
		integer = false
		s.off++
		if !isDigit(s.next()) {
			return nil, false, s.fail("invalid number")
		}
		for isDigit(s.next()) {
			s.off++
		}
	}
	if c := s.next(); c == 'e' || c == 'E' {
		integer = false
		s.off++
		if c := s.next(); c == '+' || c == '-' {
			s.off++
		}
		if !isDigit(s.next()) {
			return nil, false, s.fail("invalid number")
		}
		for isDigit(s.next()) {
			s.off++
		}
	}
	return s.data[start:s.off], integer, nil
}

// plainByte marks the bytes a string token holds as they stand: printable
// ASCII but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes one string token and returns its raw contents, between the
// quotes; plain reports that they hold no escape and only valid UTF-8, so
// they are the string's value as they stand.
func (s *jsonScan) str() (raw []byte, plain bool, err error) {
	data := s.data
	start := s.off + 1 // past the opening quote
	i, escaped, ascii := start, false, true
	for i < len(data) {
		c := data[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			raw = data[start:i]
			s.off = i + 1
			return raw, !escaped && (ascii || utf8.Valid(raw)), nil
		case c < 0x20:
			s.off = i
			return nil, false, s.fail("control character in string")
		case c == '\\':
			escaped = true
			i++
			if i == len(data) {
				break
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if i+5 > len(data) || !isHex(data[i+1]) || !isHex(data[i+2]) || !isHex(data[i+3]) || !isHex(data[i+4]) {
					s.off = i
					return nil, false, s.fail("invalid \\u escape")
				}
				i += 5
			default:
				s.off = i
				return nil, false, s.fail("invalid escape")
			}
		default: // the lead byte of a multi-byte or invalid sequence
			ascii = false
			i++
		}
	}
	s.off = i
	return nil, false, s.fail("unterminated string")
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the raw contents of a valid string token as
// encoding/json does: escapes resolved, a surrogate pair joined, a lone
// surrogate and every invalid UTF-8 byte replaced by U+FFFD.
func unquote(raw []byte) string {
	b := make([]byte, 0, len(raw))
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			switch e := raw[r+1]; e {
			case 'u':
				rr := hex4(raw[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(raw) && raw[r] == '\\' && raw[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(raw[r+2:])); dec != unicode.ReplacementChar {
							r += 6
							b = utf8.AppendRune(b, dec)
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			default: // " \ /
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return string(b)
}

// hex4 reads the four hex digits of a \u escape str already validated.
func hex4(h []byte) rune {
	var r rune
	for _, c := range h[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skip consumes one value of any type, nested depth containers deep.
func (s *jsonScan) skip(depth int) error {
	switch c := s.next(); {
	case c == '"':
		_, _, err := s.str()
		return err
	case c == '-' || isDigit(c):
		_, _, err := s.number()
		return err
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '{' || c == '[':
		if depth+1 > maxJSONDepth {
			return s.fail("exceeded max depth")
		}
		s.off++
		s.ws()
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		if s.next() == closer {
			s.off++
			return nil
		}
		for {
			if c == '{' {
				if s.next() != '"' {
					return s.fail("object key is not a string")
				}
				if _, _, err := s.str(); err != nil {
					return err
				}
				if err := s.colon(); err != nil {
					return err
				}
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			s.ws()
			switch s.next() {
			case ',':
				s.off++
				s.ws()
			case closer:
				s.off++
				return nil
			default:
				return s.fail("expected , or a closing bracket")
			}
		}
	default:
		return s.fail("invalid value")
	}
}

func (s *jsonScan) colon() error {
	s.ws()
	if s.next() != ':' {
		return s.fail("expected :")
	}
	s.off++
	s.ws()
	return nil
}

// The value parsers below store one member's value as encoding/json
// stores it into a field of that type: null leaves a scalar alone, and any
// other mismatched type fails (Unmarshal fails with an UnmarshalTypeError
// there).

func (s *jsonScan) stringField(dst *string) error {
	switch s.next() {
	case 'n':
		return s.literal("null")
	case '"':
		raw, plain, err := s.str()
		if err != nil {
			return err
		}
		if plain {
			*dst = string(raw) // a copy: nothing aliases the document
		} else {
			*dst = unquote(raw)
		}
		return nil
	}
	return s.fail("want a string")
}

func (s *jsonScan) intValue() (int, error) {
	tok, integer, err := s.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if !integer || err != nil {
		return 0, s.fail("number is not an int")
	}
	return int(v), nil
}

func (s *jsonScan) intField(dst *int) (err error) {
	switch c := s.next(); {
	case c == 'n':
		return s.literal("null")
	case c == '-' || isDigit(c):
		*dst, err = s.intValue()
		return err
	}
	return s.fail("want a number")
}

func (s *jsonScan) floatField(dst *float64) error {
	switch c := s.next(); {
	case c == 'n':
		return s.literal("null")
	case c == '-' || isDigit(c):
		tok, _, err := s.number()
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return s.fail("number out of float64 range")
		}
		*dst = v
		return nil
	}
	return s.fail("want a number")
}

func (s *jsonScan) boolField(dst *bool) error {
	switch s.next() {
	case 'n':
		return s.literal("null")
	case 't':
		*dst = true
		return s.literal("true")
	case 'f':
		*dst = false
		return s.literal("false")
	}
	return s.fail("want a bool")
}

// intsField parses an int array member. encoding/json decodes an array
// into a slice in place: element i starts from whatever the slice's
// backing array holds there (a null element keeps it), the slice is cut to
// the elements read, and an empty array or null replaces it. A member
// repeated within one object therefore sees its earlier values; backing
// carries them between repeats (nil until the first) and is returned
// updated. hint presizes a new backing array.
func (s *jsonScan) intsField(backing []int, hint int) (v, newBacking []int, err error) {
	switch s.next() {
	case 'n':
		return nil, nil, s.literal("null")
	case '[':
	default:
		return nil, backing, s.fail("want an array")
	}
	s.off++
	s.ws()
	if s.next() == ']' {
		s.off++
		return []int{}, nil, nil
	}
	if backing == nil && hint > 0 {
		// Every element but the last takes at least two bytes.
		hint = min(hint, (len(s.data)-s.off)/2+1)
		backing = make([]int, 0, hint)
	}
	n := 0
	for {
		if n == len(backing) {
			backing = append(backing, 0)
		}
		switch c := s.next(); {
		case c == 'n':
			if err := s.literal("null"); err != nil {
				return nil, backing, err
			}
		case c == '-' || isDigit(c):
			if backing[n], err = s.intValue(); err != nil {
				return nil, backing, err
			}
		default:
			return nil, backing, s.fail("want an int")
		}
		n++
		s.ws()
		switch s.next() {
		case ',':
			s.off++
			s.ws()
		case ']':
			s.off++
			return backing[:n], backing, nil
		default:
			return nil, backing, s.fail("expected , or ]")
		}
	}
}

// The JSON names of each message struct's fields, in declaration order.
var (
	planResponseFields = []string{
		"strategy", "scheduler", "num_units", "senders", "order",
		"makespan_seconds", "effective_gbps", "num_ops", "key", "degraded", "coalesced",
	}
	planRequestFields = []string{"topology", "shape", "dtype", "src", "dst", "options", "faults"}
	topologyFields    = []string{"name", "hosts", "oversubscription"}
	endpointFields    = []string{"mesh", "spec"}
	planOptionsFields = []string{"strategy", "scheduler", "chunks", "dfs_nodes", "trials", "seed", "quality"}
	faultsFields      = []string{"scenario", "links", "hosts"}
	linkFaultFields   = []string{"a", "b", "down", "bandwidth_scale", "extra_latency_seconds"}
	hostFaultFields   = []string{"host", "nic_scale", "intra_scale"}
)

// fieldIndex matches a member name to one of fields as encoding/json does:
// exactly, else under Unicode simple case folding (so "Key" and
// "\u212aey", a Kelvin sign escaped, both name "key"); -1 for none.
func fieldIndex(fields []string, name string) int {
	for i, f := range fields {
		if name == f {
			return i
		}
	}
	for i, f := range fields {
		if strings.EqualFold(name, f) {
			return i
		}
	}
	return -1
}

// memberName scans one member's name and its colon and matches the name
// to one of fields (fieldIndex).
func (s *jsonScan) memberName(fields []string) (int, error) {
	if s.next() != '"' {
		return -1, s.fail("object key is not a string")
	}
	raw, plain, err := s.str()
	if err != nil {
		return -1, err
	}
	if !plain {
		return fieldIndex(fields, unquote(raw)), s.colon()
	}
	return fieldIndex(fields, string(raw)), s.colon()
}

// afterMember consumes what follows a member's value and reports whether
// that closed the object.
func (s *jsonScan) afterMember() (closed bool, err error) {
	s.ws()
	switch s.next() {
	case ',':
		s.off++
		s.ws()
		return false, nil
	case '}':
		s.off++
		return true, nil
	}
	return false, s.fail("expected , or }")
}

// parsePlanResponse parses one JSON document into p, a zero PlanResponse,
// exactly as json.Unmarshal(data, p) would, and fails wherever Unmarshal
// fails: unknown members are skipped (and validated), a repeated member
// overwrites as it does there, and top-level null leaves p zero. Every
// string is copied out, so p never aliases data.
func parsePlanResponse(data []byte, p *PlanResponse) error {
	s := jsonScan{data: data}
	s.ws()
	var err error
	switch s.next() {
	case 'n':
		err = s.literal("null")
	case '{':
		err = s.planResponse(p)
	default:
		err = s.fail("want an object")
	}
	if err != nil {
		return err
	}
	s.ws()
	if s.off != len(s.data) {
		return s.fail("data after the top-level value")
	}
	return nil
}

func (s *jsonScan) planResponse(p *PlanResponse) error {
	s.off++ // {
	s.ws()
	if s.next() == '}' {
		s.off++
		return nil
	}
	var senders, order []int
	for {
		field, err := s.memberName(planResponseFields)
		if err != nil {
			return err
		}
		switch field {
		case 0:
			err = s.stringField(&p.Strategy)
		case 1:
			err = s.stringField(&p.Scheduler)
		case 2:
			err = s.intField(&p.NumUnits)
		case 3:
			p.Senders, senders, err = s.intsField(senders, p.NumUnits)
		case 4:
			p.Order, order, err = s.intsField(order, p.NumUnits)
		case 5:
			err = s.floatField(&p.MakespanSeconds)
		case 6:
			err = s.floatField(&p.EffectiveGbps)
		case 7:
			err = s.intField(&p.NumOps)
		case 8:
			err = s.stringField(&p.Key)
		case 9:
			err = s.boolField(&p.Degraded)
		case 10:
			err = s.boolField(&p.Coalesced)
		default:
			err = s.skip(1)
		}
		if err != nil {
			return err
		}
		if closed, err := s.afterMember(); closed || err != nil {
			return err
		}
	}
}

// parsePlanRequest parses a /v2/plan body into req, a zero PlanRequest,
// exactly as decodeStrict does — the first JSON value, unknown members
// refused, whatever follows that value ignored — or declines it with an
// error, leaving req in any state. It declines every body decodeStrict
// refuses and a few it accepts: a top-level value other than an object, a
// member named twice in one object (encoding/json merges repeats, in place
// and through shared backing arrays). A declined body goes to decodeStrict,
// so every refusal keeps encoding/json's error text (FuzzDecodePlanRequest
// holds an accepted body to decodeStrict's value). Every string is copied
// out, so req never aliases data.
func parsePlanRequest(data []byte, req *PlanRequest) error {
	s := jsonScan{data: data}
	s.ws()
	return s.object(planRequestFields, func(field int) (err error) {
		switch field {
		case 0:
			return s.object(topologyFields, func(field int) error {
				switch field {
				case 0:
					return s.stringField(&req.Topology.Name)
				case 1:
					return s.intField(&req.Topology.Hosts)
				}
				return s.floatField(&req.Topology.Oversubscription)
			})
		case 1:
			req.Shape, _, err = s.intsField(nil, 4)
			return err
		case 2:
			return s.stringField(&req.DType)
		case 3:
			return s.endpoint(&req.Src)
		case 4:
			return s.endpoint(&req.Dst)
		case 5:
			return s.planOptions(&req.Options)
		}
		req.Faults = new(FaultsRef)
		return s.faults(req.Faults)
	})
}

// object scans the object at the cursor into a zero struct whose JSON
// names are fields: value stores the value of the member matched to
// fields[field]. Since the struct starts zero and no member may repeat, a
// null member leaves its field as it is, whatever the field's type, and
// value never sees one. An unknown or repeated member fails.
func (s *jsonScan) object(fields []string, value func(field int) error) error {
	if s.next() != '{' {
		return s.fail("want an object")
	}
	s.off++
	s.ws()
	if s.next() == '}' {
		s.off++
		return nil
	}
	var seen uint
	for {
		field, err := s.memberName(fields)
		if err != nil {
			return err
		}
		if field < 0 {
			return s.fail("unknown member")
		}
		if seen&(1<<field) != 0 {
			return s.fail("repeated member")
		}
		seen |= 1 << field
		if s.next() == 'n' {
			err = s.literal("null")
		} else {
			err = value(field)
		}
		if err != nil {
			return err
		}
		if closed, err := s.afterMember(); closed || err != nil {
			return err
		}
	}
}

// array scans the array at the cursor, calling elem once per element with
// the cursor on it.
func (s *jsonScan) array(elem func() error) error {
	if s.next() != '[' {
		return s.fail("want an array")
	}
	s.off++
	s.ws()
	if s.next() == ']' {
		s.off++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		s.ws()
		switch s.next() {
		case ',':
			s.off++
			s.ws()
		case ']':
			s.off++
			return nil
		default:
			return s.fail("expected , or ]")
		}
	}
}

func (s *jsonScan) endpoint(e *Endpoint) error {
	return s.object(endpointFields, func(field int) error {
		if field == 0 {
			return s.stringField(&e.Mesh)
		}
		return s.stringField(&e.Spec)
	})
}

func (s *jsonScan) planOptions(o *PlanOptions) error {
	return s.object(planOptionsFields, func(field int) error {
		switch field {
		case 0:
			return s.stringField(&o.Strategy)
		case 1:
			return s.stringField(&o.Scheduler)
		case 2:
			return s.intField(&o.Chunks)
		case 3:
			return s.intField(&o.DFSNodes)
		case 4:
			return s.intField(&o.Trials)
		case 5:
			seed, err := s.intValue()
			o.Seed = int64(seed)
			return err
		}
		return s.stringField(&o.Quality)
	})
}

// faults scans a faults block. An element of either list is an object or
// null, which leaves it zero; an empty list is a non-nil empty slice, as
// encoding/json decodes [].
func (s *jsonScan) faults(f *FaultsRef) error {
	return s.object(faultsFields, func(field int) error {
		switch field {
		case 0:
			return s.stringField(&f.Scenario)
		case 1:
			f.Links = []LinkFaultRef{}
			return s.array(func() error {
				f.Links = append(f.Links, LinkFaultRef{})
				l := &f.Links[len(f.Links)-1]
				if s.next() == 'n' {
					return s.literal("null")
				}
				return s.object(linkFaultFields, func(field int) error {
					switch field {
					case 0:
						return s.intField(&l.A)
					case 1:
						return s.intField(&l.B)
					case 2:
						return s.boolField(&l.Down)
					case 3:
						return s.floatField(&l.BandwidthScale)
					}
					return s.floatField(&l.ExtraLatencySeconds)
				})
			})
		}
		f.Hosts = []HostFaultRef{}
		return s.array(func() error {
			f.Hosts = append(f.Hosts, HostFaultRef{})
			h := &f.Hosts[len(f.Hosts)-1]
			if s.next() == 'n' {
				return s.literal("null")
			}
			return s.object(hostFaultFields, func(field int) error {
				switch field {
				case 0:
					return s.intField(&h.Host)
				case 1:
					return s.floatField(&h.NICScale)
				}
				return s.floatField(&h.IntraScale)
			})
		})
	})
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// The reading half of rowjson.go: every skyline row a coordinator reads
// off a shard leg — the rows of a buffered answer and every "row"
// record of a stream — and every candidate row of a /domcount body is
// parsed here by hand. Each PO label resolves to its value id in the
// schema as it is read, so a row arrives as integers and ids with no
// label string allocated; only a label written with escapes or with
// non-ASCII bytes is unquoted by encoding/json. What surrounds the rows
// — a response's head and tail, a /domcount body's orders, subspace,
// where and rank, and every record that is not a row — stays
// encoding/json's.
//
// The parser reads what rowjson.go writes, with whitespace between any
// two tokens and members in any order. It refuses, rather than reads
// some other way, what encoding/json would read differently or what no
// build writes: unknown, repeated, escaped or case-folded member names,
// nulls inside arrays, and a fraction or an exponent where an integer
// goes. Whatever it accepts, encoding/json reads as the same rows
// (FuzzRowJSONDecode); a new field on SkylineRow or RowSpec must be
// read here too.

// Row is one decoded wire row, a SkylineRow or a RowSpec, with every PO
// label resolved to its value id in the schema. TO and PO are nil when
// the row has no such member or it is null. Shard is set only when
// HasShard is.
type Row struct {
	Row      int
	TO       []int64
	PO       []int32
	Shard    int
	HasShard bool
}

// RowDecoder reads wire rows against one schema. The TO values and PO
// ids of the rows it returns are carved from chunks it allocates, so
// they stay valid after the bytes they were read from are reused, and
// rows read together share a few backing arrays. A RowDecoder is not
// safe for concurrent use.
type RowDecoder struct {
	sc  *Schema
	s   scanner
	to  []int64 // the unused rest of the current TO chunk
	po  []int32 // the unused rest of the current PO chunk
	buf []int64 // one row's TO values while they are read
}

// NewRowDecoder returns a decoder for rows of this schema.
func (sc *Schema) NewRowDecoder() *RowDecoder { return &RowDecoder{sc: sc} }

// Response reads a buffered query answer (a QueryResponse body): the
// rows of its "skyline" array by hand, each handed to each in order,
// and every other member by encoding/json. The *Row is reused between
// calls; its TO and PO are not.
func (d *RowDecoder) Response(b []byte, each func(*Row) error) (ResponseHead, ResponseTail, error) {
	var rest struct {
		ResponseHead
		ResponseTail
		Skyline caseVariant `json:"skyline"`
	}
	err := d.envelope(b, "skyline", func() error { return d.rows(skylineRowMembers, each) }, &rest)
	if err == nil && rest.Skyline {
		err = errors.New(`json: a second "skyline" member, spelled another way`)
	}
	return rest.ResponseHead, rest.ResponseTail, err
}

// DomCount reads a DomCountRequest body: its candidate rows by hand,
// every other member by encoding/json into the returned request, whose
// Rows stay nil.
func (d *RowDecoder) DomCount(b []byte) (DomCountRequest, []Row, error) {
	var rest struct {
		DomCountRequest
		Rows caseVariant `json:"rows"` // hides DomCountRequest.Rows
	}
	var rows []Row
	err := d.envelope(b, "rows", func() error {
		return d.rows(rowSpecMembers, func(r *Row) error {
			rows = append(rows, *r)
			return nil
		})
	}, &rest)
	if err == nil && rest.Rows {
		err = errors.New(`json: a second "rows" member, spelled another way`)
	}
	return rest.DomCountRequest, rows, err
}

// Frame reads one line of an NDJSON stream. A "row" record — one whose
// first member is "type":"row", as RowRecord writes it — is read by
// hand: ok reports it, r is its row and key its SFS key (nil when
// absent). Any other record is left to encoding/json (ok false, no
// error).
func (d *RowDecoder) Frame(line []byte) (r Row, key *int64, ok bool, err error) {
	s := &d.s
	*s = scanner{b: line}
	if s.expect('{') != nil {
		return Row{}, nil, false, nil
	}
	if name, plain, err := s.str(); err != nil || !plain || string(name) != "type" || s.expect(':') != nil {
		return Row{}, nil, false, nil
	}
	if typ, plain, err := s.str(); err != nil || !plain || string(typ) != "row" {
		return Row{}, nil, false, nil
	}
	haveRow := false
	for seen := 0; ; {
		switch s.peek() {
		case '}':
			s.i++
			if err := s.end(); err != nil {
				return Row{}, nil, true, err
			}
			if !haveRow {
				return Row{}, nil, true, errors.New("json: row record without a row")
			}
			return r, key, true, nil
		case ',':
			s.i++
		default:
			return Row{}, nil, true, s.errorf("want , or } after a member")
		}
		m, err := s.member(frameMembers, &seen)
		if err != nil {
			return Row{}, nil, true, err
		}
		switch m {
		case memberRow:
			haveRow = true
			err = d.row(skylineRowMembers, &r)
		case memberEmission:
			_, err = s.integer(strconv.IntSize)
		case memberElapsed:
			err = s.float()
		case memberKey:
			key = nil
			if !s.null() {
				var v int64
				if v, err = s.integer(64); err == nil {
					key = &carve(&d.to, 1)[0]
					*key = v
				}
			}
		}
		if err != nil {
			return Row{}, nil, true, err
		}
	}
}

// ReadDomCount reads a /domcount request body from r to its end and
// splits it as DomCount does. An error reading r (a *http.MaxBytesError
// among them) is returned as it is.
func (sc *Schema) ReadDomCount(r io.Reader) (req DomCountRequest, rows []Row, err error) {
	err = WithBody(r, func(b []byte) error {
		req, rows, err = sc.NewRowDecoder().DomCount(b)
		return err
	})
	return req, rows, err
}

// caseVariant marks that encoding/json matched a member the hand
// parser took for another name — "Skyline", or an escaped "skyline" —
// to the member the hand parser reads: such a body is refused.
type caseVariant bool

func (c *caseVariant) UnmarshalJSON([]byte) error {
	*c = true
	return nil
}

// maxDepth bounds the nesting of the values envelope skips, as
// encoding/json bounds what it decodes.
const maxDepth = 10000

// envelope reads b, one JSON object: the member called key by arr (at
// most once), and every other member into a JSON object of its own that
// encoding/json decodes into rest.
func (d *RowDecoder) envelope(b []byte, key string, arr func() error, rest any) error {
	s := &d.s
	*s = scanner{b: b}
	bd := getBody()
	defer bodyPool.Put(bd)
	others := append(bd.b, '{')
	if err := s.expect('{'); err != nil {
		return err
	}
	found := false
	if s.peek() == '}' {
		s.i++
	} else {
		for {
			s.ws()
			start := s.i
			name, plain, err := s.str()
			if err != nil {
				return err
			}
			if err := s.expect(':'); err != nil {
				return err
			}
			if plain && string(name) == key {
				if found {
					return s.errorf("repeated member %q", key)
				}
				found = true
				if err := arr(); err != nil {
					return err
				}
			} else {
				if err := s.skip(0); err != nil {
					return err
				}
				if len(others) > 1 {
					others = append(others, ',')
				}
				others = append(others, b[start:s.i]...)
			}
			c := s.peek()
			if c == '}' {
				s.i++
				break
			}
			if c != ',' {
				return s.errorf("want , or } after a member")
			}
			s.i++
		}
	}
	bd.b = append(others, '}')
	if err := s.end(); err != nil {
		return err
	}
	return json.Unmarshal(bd.b, rest)
}

// rows reads a JSON array of row objects (or null) and hands each row
// to each in order.
func (d *RowDecoder) rows(allowed int, each func(*Row) error) error {
	s := &d.s
	if s.null() {
		return nil
	}
	if err := s.expect('['); err != nil {
		return err
	}
	if s.peek() == ']' {
		s.i++
		return nil
	}
	var r Row
	for {
		if err := d.row(allowed, &r); err != nil {
			return err
		}
		if err := each(&r); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return nil
		default:
			return s.errorf("want , or ] after a row")
		}
	}
}

// Member names of the objects the parser reads, as bits of a set.
const (
	memberRow = 1 << iota
	memberTO
	memberPO
	memberShard
	memberEmission
	memberElapsed
	memberKey

	skylineRowMembers = memberRow | memberTO | memberPO | memberShard
	rowSpecMembers    = memberTO | memberPO
	frameMembers      = memberRow | memberEmission | memberElapsed | memberKey
)

// member reads a member name and its colon: one of allowed, and not one
// already in seen (which it joins).
func (s *scanner) member(allowed int, seen *int) (int, error) {
	name, plain, err := s.str()
	if err != nil {
		return 0, err
	}
	m := 0
	if plain {
		switch string(name) {
		case "row":
			m = memberRow
		case "to":
			m = memberTO
		case "po":
			m = memberPO
		case "shard":
			m = memberShard
		case "emission":
			m = memberEmission
		case "elapsedSeconds":
			m = memberElapsed
		case "key":
			m = memberKey
		}
	}
	if m&allowed == 0 || m&*seen != 0 {
		return 0, s.errorf("unexpected member %q", name)
	}
	*seen |= m
	return m, s.expect(':')
}

// row reads one row object whose members are among allowed.
func (d *RowDecoder) row(allowed int, r *Row) error {
	s := &d.s
	*r = Row{}
	if err := s.expect('{'); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for seen := 0; ; {
		m, err := s.member(allowed, &seen)
		if err != nil {
			return err
		}
		switch m {
		case memberRow:
			var v int64
			v, err = s.integer(strconv.IntSize)
			r.Row = int(v)
		case memberTO:
			r.TO, err = d.toValues()
		case memberPO:
			r.PO, err = d.labels()
		case memberShard:
			r.HasShard = !s.null()
			if r.HasShard {
				var v int64
				v, err = s.integer(strconv.IntSize)
				r.Shard = int(v)
			}
		}
		if err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return nil
		default:
			return s.errorf("want , or } after a member")
		}
	}
}

// toValues reads a row's TO array (or null).
func (d *RowDecoder) toValues() ([]int64, error) {
	s := &d.s
	if s.null() {
		return nil, nil
	}
	if err := s.expect('['); err != nil {
		return nil, err
	}
	buf := d.buf[:0]
	if s.peek() == ']' {
		s.i++
	} else {
		for {
			v, err := s.integer(64)
			if err != nil {
				return nil, err
			}
			buf = append(buf, v)
			c := s.peek()
			if c != ',' && c != ']' {
				return nil, s.errorf("want , or ] after a TO value")
			}
			s.i++
			if c == ']' {
				break
			}
		}
	}
	d.buf = buf
	if len(buf) == 0 {
		return []int64{}, nil
	}
	to := carve(&d.to, len(buf))
	copy(to, buf)
	return to, nil
}

// labels reads a row's PO array (or null), one label per PO column, as
// value ids.
func (d *RowDecoder) labels() ([]int32, error) {
	s := &d.s
	if s.null() {
		return nil, nil
	}
	if err := s.expect('['); err != nil {
		return nil, err
	}
	if s.peek() == ']' {
		s.i++
		return []int32{}, nil
	}
	po := carve(&d.po, len(d.sc.poIndex))
	n := 0
	for {
		if n == len(po) {
			return nil, s.errorf("more PO values than the table's %d PO columns", len(po))
		}
		id, err := d.label(n)
		if err != nil {
			return nil, err
		}
		po[n] = id
		n++
		c := s.peek()
		if c != ',' && c != ']' {
			return nil, s.errorf("want , or ] after a PO value")
		}
		s.i++
		if c == ']' {
			return po[:n:n], nil
		}
	}
}

// label reads one label of PO column col and returns its value id.
func (d *RowDecoder) label(col int) (int32, error) {
	s := &d.s
	s.ws()
	start := s.i
	raw, plain, err := s.str()
	if err != nil {
		return 0, err
	}
	var id int
	var ok bool
	if plain {
		id, ok = d.sc.poIndex[col][string(raw)]
	} else {
		var v string
		if err := json.Unmarshal(s.b[start:s.i], &v); err != nil {
			return 0, err
		}
		id, ok = d.sc.poIndex[col][v]
	}
	if !ok {
		return 0, fmt.Errorf("unknown value %s for PO column %d", s.b[start:s.i], col)
	}
	return int32(id), nil
}

// carve returns n elements of *chunk, first replacing it with a fresh
// chunk when fewer are left.
func carve[T int32 | int64](chunk *[]T, n int) []T {
	if len(*chunk) < n {
		*chunk = make([]T, max(n, 1024))
	}
	c := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return c
}

// scanner is a read position in one JSON document.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("json: offset %d: %s", s.i, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace.
func (s *scanner) ws() { s.peek() }

// peek returns the next byte past whitespace without reading it; 0 at
// the end.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// expect reads c, past whitespace.
func (s *scanner) expect(c byte) error {
	if s.peek() != c {
		return s.errorf("want %q", c)
	}
	s.i++
	return nil
}

// end checks that nothing but whitespace is left.
func (s *scanner) end() error {
	if s.ws(); s.i < len(s.b) {
		return s.errorf("data after the value")
	}
	return nil
}

// null reads a null, past whitespace, if one is next.
func (s *scanner) null() bool {
	if s.peek() == 'n' && bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += 4
		return true
	}
	return false
}

// str reads a JSON string, past whitespace, and returns the bytes
// between its quotes. plain reports that they are the string itself:
// no escape, valid UTF-8. Escapes are validated only by whoever
// unquotes a string that is not plain.
func (s *scanner) str() (raw []byte, plain bool, err error) {
	if s.peek() != '"' {
		return nil, false, s.errorf("want a string")
	}
	b := s.b
	start := s.i + 1
	plain = true
	ascii := true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			raw = b[start:i]
			s.i = i + 1
			if plain && !ascii {
				plain = utf8.Valid(raw)
			}
			return raw, plain, nil
		case c == '\\':
			plain = false
			i++
		case c < 0x20:
			s.i = i
			return nil, false, s.errorf("control character in a string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	s.i = len(b)
	return nil, false, s.errorf("unterminated string")
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number reads a JSON number, past whitespace, and returns its bytes;
// integral reports that it has neither a fraction nor an exponent.
func (s *scanner) number() (lit []byte, integral bool, err error) {
	s.ws()
	b, i := s.b, s.i
	digits := func() bool {
		from := i
		for i < len(b) && isDigit(b[i]) {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false, s.errorf("want a number")
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false, s.errorf("want a digit after the decimal point")
		}
		integral = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, s.errorf("want a digit in the exponent")
		}
		integral = false
	}
	lit, s.i = b[s.i:i], i
	return lit, integral, nil
}

// integer reads a JSON number that encoding/json reads into a signed
// integer of the given bits: no fraction, no exponent, no overflow.
func (s *scanner) integer(bits int) (int64, error) {
	// Fast path: few enough digits that the integer cannot overflow,
	// ending where a number must end.
	safe := 18
	if bits < 64 {
		safe = 9
	}
	s.ws()
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var v int64
	from := i
	for ; i < len(b) && i-from <= safe && isDigit(b[i]); i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if n := i - from; n > 0 && n <= safe && (n == 1 || b[from] != '0') &&
		(i == len(b) || b[i] != '.' && b[i] != 'e' && b[i] != 'E' && !isDigit(b[i])) {
		s.i = i
		if neg {
			v = -v
		}
		return v, nil
	}
	return s.slowInteger(bits)
}

// slowInteger is integer for a number its fast path does not take.
func (s *scanner) slowInteger(bits int) (int64, error) {
	lit, integral, err := s.number()
	if err != nil {
		return 0, err
	}
	if !integral {
		return 0, s.errorf("number %s is not an integer", lit)
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(1) << (bits - 1) // |min|; max is limit-1
	var u uint64
	for _, c := range lit {
		if u > (limit-uint64(c-'0'))/10 {
			return 0, s.errorf("number overflows int%d", bits)
		}
		u = u*10 + uint64(c-'0')
	}
	if !neg && u == limit {
		return 0, s.errorf("number overflows int%d", bits)
	}
	if neg {
		return -int64(u), nil
	}
	return int64(u), nil
}

// float reads a JSON number that encoding/json reads into a float64:
// one within its range.
func (s *scanner) float() error {
	lit, _, err := s.number()
	if err != nil {
		return err
	}
	if _, err := strconv.ParseFloat(string(lit), 64); err != nil {
		return s.errorf("number %s overflows float64", lit)
	}
	return nil
}

// skip reads one JSON value of any kind, past whitespace, leaving its
// string escapes unchecked: envelope hands every skipped value to
// encoding/json, which checks them.
func (s *scanner) skip(depth int) error {
	if depth > maxDepth {
		return s.errorf("exceeded max depth")
	}
	switch c := s.peek(); c {
	case '"':
		_, _, err := s.str()
		return err
	case '{', '[':
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		s.i++
		if s.peek() == closer {
			s.i++
			return nil
		}
		for {
			if c == '{' {
				if _, _, err := s.str(); err != nil {
					return err
				}
				if err := s.expect(':'); err != nil {
					return err
				}
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			switch s.peek() {
			case ',':
				s.i++
			case closer:
				s.i++
				return nil
			default:
				return s.errorf("want , or %q", closer)
			}
		}
	case 't', 'f', 'n':
		for _, lit := range []string{"true", "false", "null"} {
			if bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
				s.i += len(lit)
				return nil
			}
		}
		return s.errorf("invalid literal")
	default:
		_, _, err := s.number()
		return err
	}
}

// WithBody reads r to its end into a pooled buffer and hands the bytes
// to use; they are valid only until use returns. An error reading r
// (a *http.MaxBytesError among them) is returned as it is.
func WithBody(r io.Reader, use func(b []byte) error) error {
	bd := getBody()
	defer func() {
		// A buffer an oversized body grew is left to the collector.
		if cap(bd.b) <= maxPooledBody {
			bodyPool.Put(bd)
		}
	}()
	for {
		if cap(bd.b)-len(bd.b) < 4096 {
			bd.b = append(bd.b, make([]byte, max(4096, cap(bd.b)))...)[:len(bd.b)]
		}
		n, err := r.Read(bd.b[len(bd.b):cap(bd.b)])
		bd.b = bd.b[:len(bd.b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	return use(bd.b)
}

// maxPooledBody is the largest read buffer WithBody returns to the pool.
const maxPooledBody = 4 << 20

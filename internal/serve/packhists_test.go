package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/plan"
)

// fuzzRuns derives valid per-candidate runs from arbitrary bytes: per
// candidate a run count, then per run a k step and a count, with steps
// up to 2^28 and counts up to 2^47 so multi-byte uvarints and the int32
// ceiling are reached. A run that would carry k past int32 ends the
// candidate. Candidates without runs are KHist{}, as UnpackHists
// returns them.
func fuzzRuns(b []byte) []plan.KHist {
	var hists []plan.KHist
	for len(b) > 0 {
		runs := int(b[0]) % 6
		b = b[1:]
		var h plan.KHist
		k := int32(0)
		for ; runs > 0 && len(b) >= 2; runs-- {
			step := int32(b[0]&0x7f) + 1
			if b[0]&0x80 != 0 {
				step <<= 21
			}
			count := int64(b[1]&0x7f) + 1
			if b[1]&0x80 != 0 {
				count <<= 40
			}
			b = b[2:]
			if step > math.MaxInt32-k {
				break
			}
			k += step
			h.Ks, h.Counts = append(h.Ks, k), append(h.Counts, count)
		}
		hists = append(hists, h)
	}
	return hists
}

// uvarints packs vs as consecutive uvarints.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// FuzzPackedHists round-trips arbitrary ascending runs through
// PackHists and UnpackHists, and feeds arbitrary bytes to UnpackHists:
// a decode either fails or yields valid runs that pack back to exactly
// the input bytes, never panics, and allocates no more than the input's
// length can describe.
func FuzzPackedHists(f *testing.F) {
	valid := PackHists([]plan.KHist{
		{Ks: []int32{1, 2, 7}, Counts: []int64{3, 1, 200}},
		{},
		{Ks: []int32{math.MaxInt32}, Counts: []int64{math.MaxInt64}},
	})
	f.Add(valid, 3)
	f.Add(valid[:len(valid)-1], 3)                     // truncated
	f.Add(append(valid[:len(valid):len(valid)], 0), 3) // trailing byte
	f.Add(valid, 2)                                    // more candidates than asked for
	f.Add(valid, 4)                                    // fewer
	f.Add(uvarints(1, 0, 1), 1)                        // k step 0
	f.Add(uvarints(1, 1, 0), 1)                        // count 0
	f.Add(uvarints(1, math.MaxInt32+1, 1), 1)          // k past int32
	f.Add(uvarints(2, math.MaxInt32, 1, 1, 1), 1)
	f.Add(uvarints(1, 1, math.MaxInt64+1), 1) // count past int64
	f.Add(uvarints(5, 1, 1), 1)               // run length past the end
	f.Add(uvarints(math.MaxUint64), 1)
	f.Add([]byte{0x80, 0x00}, 1) // non-minimal zero
	f.Add([]byte{}, 0)
	f.Add([]byte{}, -1)
	f.Fuzz(func(t *testing.T, b []byte, n int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hists, err := UnpackHists(b, n)
		runtime.ReadMemStats(&after)
		// 48 bytes of view per candidate (at most one per input byte) and
		// 12 of backing arrays per two input bytes. The allowance absorbs
		// what the fuzzing engine allocates meanwhile; a decoder sizing
		// anything by a claimed count, not by len(b), blows far past it.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(b)) {
			t.Fatalf("decoding %d bytes for %d candidates allocated %d bytes", len(b), n, grew)
		}
		if err == nil {
			if len(hists) != n {
				t.Fatalf("decoded %d candidates, asked for %d", len(hists), n)
			}
			for i, h := range hists {
				if len(h.Ks) != len(h.Counts) {
					t.Fatalf("candidate %d: %d ks, %d counts", i, len(h.Ks), len(h.Counts))
				}
				for x, k := range h.Ks {
					if k < 1 || (x > 0 && k <= h.Ks[x-1]) || h.Counts[x] < 1 {
						t.Fatalf("candidate %d: invalid runs %+v", i, h)
					}
				}
			}
			if got := PackHists(hists); !bytes.Equal(got, b) {
				t.Fatalf("decoded %x repacks as %x", b, got)
			}
		}

		runs := fuzzRuns(b)
		packed := PackHists(runs)
		got, err := UnpackHists(packed, len(runs))
		if err != nil {
			t.Fatalf("packed runs %+v do not decode: %v", runs, err)
		}
		if len(runs) > 0 && !reflect.DeepEqual(got, runs) {
			t.Fatalf("runs %+v round-trip as %+v", runs, got)
		}
		if _, err := UnpackHists(packed, len(runs)+1); err == nil {
			t.Fatalf("%d candidates decode as %d", len(runs), len(runs)+1)
		}
		if len(packed) > 0 {
			if _, err := UnpackHists(packed[:len(packed)-1], len(runs)); err == nil {
				t.Fatalf("truncated %x decodes", packed)
			}
			if _, err := UnpackHists(append(packed, 0), len(runs)); err == nil {
				t.Fatalf("%x with a trailing byte decodes", packed)
			}
		}
	})
}

// TestUnpackHistsRejects: every malformed shape is an error.
func TestUnpackHistsRejects(t *testing.T) {
	valid := uvarints(2, 1, 3, 4, 1, 0) // {k1:3, k5:1}, {}
	if _, err := UnpackHists(valid, 2); err != nil {
		t.Fatalf("valid input: %v", err)
	}
	for _, c := range []struct {
		name string
		b    []byte
		n    int
	}{
		{"truncated", valid[:len(valid)-1], 2},
		{"trailing bytes", append(uvarints(2, 1, 3, 4, 1, 0), 0), 2},
		{"fewer candidates than asked", valid, 3},
		{"more candidates than asked", valid, 1},
		{"negative candidate count", valid, -1},
		{"k step 0", uvarints(1, 0, 1), 1},
		{"count 0", uvarints(1, 1, 0), 1},
		{"k past int32", uvarints(1, math.MaxInt32+1, 1), 1},
		{"k steps summing past int32", uvarints(2, math.MaxInt32, 1, 1, 1), 1},
		{"count past int64", uvarints(1, 1, math.MaxInt64+1), 1},
		{"run length past the end", uvarints(5, 1, 1), 1},
		{"overflowing uvarint", bytes.Repeat([]byte{0xff}, 11), 1},
		{"non-minimal uvarint", []byte{0x80, 0x00}, 1},
	} {
		if _, err := UnpackHists(c.b, c.n); err == nil {
			t.Errorf("%s: %x for %d candidates decodes", c.name, c.b, c.n)
		}
	}
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestDomCountBodyBound: a /domcount body past MaxDomCountBody is
// refused with 413, like an oversized query. The body is generated as
// it is sent.
func TestDomCountBodyBound(t *testing.T) {
	_, ts := newTestServer(t)
	body := io.MultiReader(strings.NewReader(`{"rows":[`), io.LimitReader(spaces{}, MaxDomCountBody))
	resp, err := http.Post(ts.URL+"/tables/flights/domcount", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized domcount body: status %d, want 413", resp.StatusCode)
	}
}

// TestBatchBodyBound: a rows:batch body past MaxDomCountBody is refused
// with 413 before any row is applied, so no batch is acknowledged whose
// WAL record a restart or a follower would refuse to replay. The body
// is generated as it is sent.
func TestBatchBodyBound(t *testing.T) {
	_, ts := newTestServer(t)
	body := io.MultiReader(strings.NewReader(`{"add":[`), io.LimitReader(spaces{}, MaxDomCountBody))
	resp, err := http.Post(ts.URL+"/tables/flights/rows:batch", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch body: status %d, want 413", resp.StatusCode)
	}
}

// TestCreateBodyBound: a table-create body past MaxCreateBody is
// refused with 413 and creates nothing. The body is generated as it is
// sent.
func TestCreateBodyBound(t *testing.T) {
	_, ts := newTestServer(t)
	body := io.MultiReader(strings.NewReader(`{"name":"huge","toColumns":["x"],"rows":[`), io.LimitReader(spaces{}, MaxCreateBody))
	resp, err := http.Post(ts.URL+"/tables", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create body: status %d, want 413", resp.StatusCode)
	}
	if status := doJSON(t, http.MethodGet, ts.URL+"/tables/huge", nil, nil); status != http.StatusNotFound {
		t.Fatalf("table after a refused create: status %d, want 404", status)
	}
}

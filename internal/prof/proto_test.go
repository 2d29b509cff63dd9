package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/trace"
)

// --- minimal profile.proto decoder, just enough to verify the encoder ---

type pbField struct {
	num  int
	vint uint64
	body []byte
}

func pbFields(t *testing.T, b []byte) []pbField {
	t.Helper()
	var out []pbField
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			t.Fatalf("truncated varint key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.vint, n = pbVarint(b)
			if n == 0 {
				t.Fatalf("truncated varint value (field %d)", f.num)
			}
			b = b[n:]
		case 2:
			ln, n := pbVarint(b)
			b = b[n:]
			if uint64(len(b)) < ln {
				t.Fatalf("truncated bytes value (field %d)", f.num)
			}
			f.body, b = b[:ln], b[ln:]
		default:
			t.Fatalf("unexpected wire type %d (field %d)", key&7, f.num)
		}
		out = append(out, f)
	}
	return out
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

func pbPacked(b []byte) []int64 {
	var out []int64
	for len(b) > 0 {
		v, n := pbVarint(b)
		out = append(out, int64(v))
		b = b[n:]
	}
	return out
}

// decodedProfile is the decoder's view of one emitted profile.
type decodedProfile struct {
	strings    []string
	sampleType [2]int64           // type, unit string indices
	samples    []decodedSample    // location ids + value
	locs       map[int64][2]int64 // id -> function id, line
	funcs      map[int64][3]int64 // id -> name, system_name, filename indices
	periodType [2]int64
	period     int64
}

type decodedSample struct {
	locIDs []int64
	value  int64
}

func decodeProfile(t *testing.T, gzipped []byte) decodedProfile {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gzipped))
	if err != nil {
		t.Fatalf("profile is not gzipped: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	p := decodedProfile{locs: map[int64][2]int64{}, funcs: map[int64][3]int64{}}
	for _, f := range pbFields(t, raw) {
		switch f.num {
		case 1: // sample_type
			for _, vf := range pbFields(t, f.body) {
				p.sampleType[vf.num-1] = int64(vf.vint)
			}
		case 2: // sample
			var s decodedSample
			for _, sf := range pbFields(t, f.body) {
				switch sf.num {
				case 1:
					s.locIDs = pbPacked(sf.body)
				case 2:
					vs := pbPacked(sf.body)
					if len(vs) != 1 {
						t.Fatalf("sample has %d values, want 1", len(vs))
					}
					s.value = vs[0]
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id, fn, line int64
			for _, lf := range pbFields(t, f.body) {
				switch lf.num {
				case 1:
					id = int64(lf.vint)
				case 4:
					for _, ln := range pbFields(t, lf.body) {
						switch ln.num {
						case 1:
							fn = int64(ln.vint)
						case 2:
							line = int64(ln.vint)
						}
					}
				}
			}
			p.locs[id] = [2]int64{fn, line}
		case 5: // function
			var id int64
			var rest [3]int64
			for _, ff := range pbFields(t, f.body) {
				switch ff.num {
				case 1:
					id = int64(ff.vint)
				case 2, 3, 4:
					rest[ff.num-2] = int64(ff.vint)
				}
			}
			p.funcs[id] = rest
		case 6: // string_table
			p.strings = append(p.strings, string(f.body))
		case 11:
			for _, vf := range pbFields(t, f.body) {
				p.periodType[vf.num-1] = int64(vf.vint)
			}
		case 12:
			p.period = int64(f.vint)
		}
	}
	return p
}

func testSnapshot() *Snapshot {
	p := New()
	v := newThread(p, "main")
	v.pc = 3
	v.tick(10)
	v.tp.Push("inner")
	v.pc = 8
	v.tick(25)
	v.enter("Lock")
	v.pc = 9
	v.tick(7)
	v.rollback("Lock")
	v.block("Lock", 4)
	p.Emit(trace.Event{Kind: trace.SchedIdle, N: 2})
	return p.Snapshot()
}

func TestWritePprofDecodes(t *testing.T) {
	s := testSnapshot()
	var buf bytes.Buffer
	if err := s.WritePprof(&buf, Work); err != nil {
		t.Fatal(err)
	}
	p := decodeProfile(t, buf.Bytes())

	if len(p.strings) == 0 || p.strings[0] != "" {
		t.Fatalf("string table must start with the empty string: %q", p.strings)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(p.strings) {
			t.Fatalf("string index %d out of table (len %d)", i, len(p.strings))
		}
		return p.strings[i]
	}
	if got := str(p.sampleType[0]); got != "work" {
		t.Errorf("sample_type.type = %q, want work", got)
	}
	if got := str(p.sampleType[1]); got != "ticks" {
		t.Errorf("sample_type.unit = %q, want ticks", got)
	}
	if str(p.periodType[1]) != "ticks" || p.period != 1 {
		t.Errorf("period = %d %q, want 1 ticks", p.period, str(p.periodType[1]))
	}

	var total int64
	stacks := map[string]int64{}
	for _, smp := range p.samples {
		total += smp.value
		var frames []string
		for _, id := range smp.locIDs {
			loc, ok := p.locs[id]
			if !ok {
				t.Fatalf("sample references undefined location %d", id)
			}
			fn, ok := p.funcs[loc[0]]
			if !ok {
				t.Fatalf("location %d references undefined function %d", id, loc[0])
			}
			frames = append(frames, fmt.Sprintf("%s:%d", str(fn[0]), loc[1]))
		}
		stacks[strings.Join(frames, ";")] = smp.value
	}
	if total != s.Totals[Work] {
		t.Errorf("decoded sample values sum to %d, want work total %d", total, s.Totals[Work])
	}
	// Leaf-first: the committed inner tick renders callee before caller,
	// with the caller's line at the call-site pc.
	if v := stacks["inner:8;main:3"]; v != 25 {
		t.Errorf("stack inner:8;main:3 = %d, want 25; decoded stacks: %v", v, stacks)
	}
	for id, fn := range p.funcs {
		if str(fn[2]) != "rvm" {
			t.Errorf("function %d filename = %q, want rvm", id, str(fn[2]))
		}
	}
}

func TestWritePprofDeterministic(t *testing.T) {
	enc := func() []byte {
		var buf bytes.Buffer
		if err := testSnapshot().WritePprof(&buf, Waste); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Error("identical snapshots encode to different bytes")
	}
}

func TestWriteFolded(t *testing.T) {
	s := testSnapshot()
	var buf bytes.Buffer
	if err := s.WriteFolded(&buf, Work); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	// Root-first, `func@pc` frames (the caller renders its call-site pc),
	// aggregated and sorted.
	want := "main@3 10\nmain@3;inner@8 25\n"
	if got != want {
		t.Errorf("folded work profile:\n%q\nwant:\n%q", got, want)
	}

	buf.Reset()
	if err := s.WriteFolded(&buf, Block); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "main@3;inner@9;monitor:Lock 4\n" {
		t.Errorf("folded block profile = %q — the contended monitor must be the leaf", got)
	}
}

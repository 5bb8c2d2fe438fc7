package wire

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// marshalReference is the envelope built the obvious way: the header, the
// body appended to a fresh buffer, the closing brace. Marshal's pooled
// single pass must produce the same bytes.
func marshalReference(topic string, body Encoder) ([]byte, error) {
	if !plainTopic(topic) {
		return nil, fmt.Errorf("topic %q is not plain", topic)
	}
	out := []byte(`{"t":"` + topic + `"`)
	if body != nil {
		out = append(append(out, `,"b":`...), body.AppendWire(nil)...)
	}
	return append(out, '}'), nil
}

// TestMarshalMatchesReference pins the pooled fast path to the reference
// envelope, byte for byte, across every body in the tree and adversarial
// topics and bodies.
func TestMarshalMatchesReference(t *testing.T) {
	type tc struct {
		topic string
		body  Encoder
	}
	var cases []tc
	for _, s := range envelopeShapes() {
		cases = append(cases, tc{s.topic, s.body})
	}
	cases = append(cases,
		tc{"empty-body", nil},
		tc{"raw", rawBody(`}"{`)},
		tc{"raw-binary", rawBody{0, 0xff, '"', '}'}},
		tc{`needs "escaping"\`, body{A: "plain"}},
		tc{"unicode-τοπίκ", body{A: "<script>"}},
		tc{"ctrl\x01topic", body{B: 1}},
		tc{"html<&>", nil},
	)
	for _, c := range cases {
		want, werr := marshalReference(c.topic, c.body)
		got, gerr := Marshal(c.topic, c.body)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("topic %q: err mismatch: ref=%v fast=%v", c.topic, werr, gerr)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("topic %q:\nref  %q\nfast %q", c.topic, want, got)
		}
	}
}

// Property: the fast path and the reference agree on arbitrary topics and
// string payloads.
func TestQuickMarshalMatchesReference(t *testing.T) {
	f := func(topic, a string, b int) bool {
		want, werr := marshalReference(topic, body{A: a, B: b})
		got, gerr := Marshal(topic, body{A: a, B: b})
		return bytes.Equal(want, got) && (werr == nil) == (gerr == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalConcurrent exercises the encoder pool under parallel use: every
// result must own its bytes (no pooled-buffer aliasing between goroutines).
func TestMarshalConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				topic := fmt.Sprintf("t%d", g)
				payload, err := Marshal(topic, body{A: topic, B: i})
				if err != nil {
					t.Error(err)
					return
				}
				m, err := Unmarshal(payload)
				if err != nil || m.Topic != topic {
					t.Errorf("g%d i%d: corrupted payload %q (err %v)", g, i, payload, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkWireMarshal compares the single-pass pooled encoder against the
// reference envelope on a propagation batch of eight register states.
func BenchmarkWireMarshal(b *testing.B) {
	payload := propBody(8)
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Marshal("qaf/prop", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := marshalReference("qaf/prop", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// decodeRungs are the write-path and propagation messages the decode
// benchmarks measure, each with a fresh value of the body type its handler
// decodes into.
var decodeRungs = []struct {
	shape string
	into  func() Decoder
}{
	{"2b-batch64", func() Decoder { return new(Accept) }},
	{"dec", func() Decoder { return new(Decision) }},
	{"ckpt", func() Decoder { return new(Int) }},
	{"qaf-prop", func() Decoder { return new(Props) }},
}

// rungPayload returns the Marshal output of the named envelope shape.
func rungPayload(b *testing.B, name string) []byte {
	b.Helper()
	for _, s := range envelopeShapes() {
		if s.name == name {
			p, err := Marshal(s.topic, s.body)
			if err != nil {
				b.Fatal(err)
			}
			return p
		}
	}
	b.Fatalf("no envelope shape %q", name)
	return nil
}

// BenchmarkWireUnmarshal measures splitting an envelope into topic and
// body, the step every delivered message pays before dispatch.
func BenchmarkWireUnmarshal(b *testing.B) {
	for _, r := range decodeRungs {
		b.Run(r.shape, func(b *testing.B) {
			p := rungPayload(b, r.shape)
			b.SetBytes(int64(len(p)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Unmarshal(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireDecode measures decoding a split envelope's body into the
// handler's message type.
func BenchmarkWireDecode(b *testing.B) {
	for _, r := range decodeRungs {
		b.Run(r.shape, func(b *testing.B) {
			m, err := Unmarshal(rungPayload(b, r.shape))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(m.Body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Decode(m, r.into()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

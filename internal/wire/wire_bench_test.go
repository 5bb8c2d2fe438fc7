package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// marshalReference is the seed implementation of Marshal: marshal the body,
// then marshal the envelope around it (two full encodes per message). Kept
// as the byte-compatibility oracle and benchmark baseline.
func marshalReference(topic string, body any) ([]byte, error) {
	var raw json.RawMessage
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("marshal body for topic %q: %w", topic, err)
		}
		raw = b
	}
	out, err := json.Marshal(Message{Topic: topic, Body: raw})
	if err != nil {
		return nil, fmt.Errorf("marshal envelope for topic %q: %w", topic, err)
	}
	return out, nil
}

// TestMarshalMatchesReference pins the fast path to the seed wire format,
// byte for byte, across representative and adversarial inputs.
func TestMarshalMatchesReference(t *testing.T) {
	type entry struct {
		N string `json:"n"`
		S []byte `json:"s"`
		C int64  `json:"c"`
	}
	cases := []struct {
		topic string
		body  any
	}{
		{"reg/clock_req", map[string]int64{"seq": 42}},
		{"qaf/prop", []entry{{N: "obj1", S: []byte(`{"v":1}`), C: 7}, {N: "obj2", C: -1}}},
		{"empty-body", nil},
		{"smr/slot0/1b", struct {
			View   int64  `json:"view"`
			Val    string `json:"val"`
			HasVal bool   `json:"has_val"`
		}{3, "x<&>y", true}},
		{`needs "escaping"\`, "plain"},
		{"unicode-τοπίκ", []string{"<script>", "ü"}},
		{"ctrl\x01topic", 1},
		{"raw", json.RawMessage(`{"k": [1,2 ,3]}`)}, // non-compact raw body
		{"null-body", json.RawMessage("null")},
	}
	for _, c := range cases {
		want, werr := marshalReference(c.topic, c.body)
		got, gerr := Marshal(c.topic, c.body)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("topic %q: err mismatch: ref=%v fast=%v", c.topic, werr, gerr)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("topic %q:\nref  %s\nfast %s", c.topic, want, got)
		}
	}
}

// Property: the fast path and the reference agree on arbitrary topics and
// string payloads.
func TestQuickMarshalMatchesReference(t *testing.T) {
	f := func(topic, a string, b int) bool {
		want, _ := marshalReference(topic, body{A: a, B: b})
		got, _ := Marshal(topic, body{A: a, B: b})
		return bytes.Equal(want, got)
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

type benchBody struct {
	Name  string `json:"n"`
	State []byte `json:"s"`
	Clock int64  `json:"c"`
}

func benchPayload() []benchBody {
	out := make([]benchBody, 8)
	for i := range out {
		out[i] = benchBody{
			Name:  fmt.Sprintf("obj%d", i),
			State: []byte(`{"val":"payload-value","ver":{"num":12345,"proc":2}}`),
			Clock: int64(1000 + i),
		}
	}
	return out
}

// BenchmarkWireMarshal compares the single-pass pooled encoder against the
// seed double-encode path; run with -benchmem to see the allocation drop.
func BenchmarkWireMarshal(b *testing.B) {
	payload := benchPayload()
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
	into  func() any
}{
	{"2b-batch64", func() any { return new(shape2B) }},
	{"dec", func() any { return new(shapeDec) }},
	{"ckpt", func() any { return new(shapeCkpt) }},
	{"qaf-prop", func() any { return new([]shapeProp) }},
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

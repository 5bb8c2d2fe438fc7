package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

type body struct {
	A string `json:"a"`
	B int    `json:"b"`
}

func TestRoundTrip(t *testing.T) {
	payload, err := Marshal("t1", body{A: "x", B: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.Topic != "t1" {
		t.Fatalf("topic %q", m.Topic)
	}
	var got body
	if err := Decode(m, &got); err != nil {
		t.Fatal(err)
	}
	if got.A != "x" || got.B != 3 {
		t.Fatalf("body %+v", got)
	}
}

func TestNilBody(t *testing.T) {
	payload, err := Marshal("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Body) != 0 {
		t.Fatalf("body = %q, want empty", m.Body)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Marshal("t", make(chan int)); err == nil {
		t.Error("unmarshalable body accepted")
	}
	if _, err := Unmarshal([]byte("{nope")); err == nil {
		t.Error("garbage envelope accepted")
	}
	m := Message{Topic: "t", Body: []byte("{bad")}
	var v body
	if err := Decode(m, &v); err == nil {
		t.Error("garbage body accepted")
	}
}

// Property: arbitrary topics and string bodies round-trip exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(topic, a string, b int) bool {
		payload, err := Marshal(topic, body{A: a, B: b})
		if err != nil {
			return false
		}
		m, err := Unmarshal(payload)
		if err != nil || m.Topic != topic {
			return false
		}
		var got body
		if err := Decode(m, &got); err != nil {
			return false
		}
		return got.A == a && got.B == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Batch values round-trip exactly and are always distinguishable from the
// JSON-encoded single commands the SMR layers store.
func TestBatchRoundTrip(t *testing.T) {
	for _, subs := range [][]SubBatch{
		{{Origin: 0, Seq: 1, Cmds: []string{"one"}}},
		{{Origin: 3, Seq: 9, Cmds: []string{"a", "b", "c"}}, {Origin: 1, Seq: 1 << 33, Cmds: []string{"d"}}},
		{{Origin: 2, Seq: 4, Cmds: []string{`{"id":"p0-1","key":"k","val":"v"}`, `{"id":"p1-9","key":"k2","val":""}`}}},
		{{Origin: 1, Seq: 2, Cmds: []string{"", "with \"quotes\" and \\ slashes", "<html>&stuff", "\x01nested"}}},
		{{Origin: 5, Seq: 6}},
	} {
		v := EncodeBatch(subs...)
		if !IsBatch(v) {
			t.Fatalf("encoded batch not recognized: %q", v)
		}
		got, err := DecodeBatch(v)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(subs)) {
			t.Fatalf("decode %v = %v", subs, got)
		}
	}
	if subs, err := DecodeBatch(EncodeBatch()); err != nil || len(subs) != 0 {
		t.Fatalf("empty batch decodes to %v, %v", subs, err)
	}
}

// JoinBatches concatenates the sub-batches of its inputs in order.
func TestJoinBatches(t *testing.T) {
	a := SubBatch{Origin: 1, Seq: 1, Cmds: []string{"x", "y"}}
	b := SubBatch{Origin: 2, Seq: 7, Cmds: []string{"z"}}
	got, err := DecodeBatch(JoinBatches([]string{EncodeBatch(a), EncodeBatch(b)}))
	if err != nil {
		t.Fatal(err)
	}
	if want := []SubBatch{a, b}; !reflect.DeepEqual(got, want) {
		t.Fatalf("joined batch = %v, want %v", got, want)
	}
	if v := EncodeBatch(a); JoinBatches([]string{v}) != v {
		t.Fatal("joining one value changed it")
	}
}

func TestBatchRejections(t *testing.T) {
	if IsBatch(`{"id":"p0-1"}`) || IsBatch("") || IsBatch("\x01") {
		t.Error("non-batch value classified as batch")
	}
	if _, err := DecodeBatch("plain"); err == nil {
		t.Error("plain value decoded as batch")
	}
	for _, v := range []string{
		"\x01b1[\"old\",\"format\"]",           // the JSON-array format this one replaced
		"\x01b2\x01\x01\x01\x05ab",             // binary lengths are not this format
		"\x01b2" + "1:",                        // truncated header
		"\x01b2" + "1:1:2:1:a",                 // two commands announced, one present
		"\x01b2" + "1:1:1:5:ab",                // command overruns the value
		"\x01b2" + "1:1:1:1a",                  // unterminated length
		"\x01b2" + "1::1:1:a",                  // empty number
		"\x01b2" + "18446744073709551616:1:0:", // origin overflows
	} {
		if _, err := DecodeBatch(v); err == nil {
			t.Errorf("corrupt batch %q decoded", v)
		}
	}
	max := EncodeBatch(SubBatch{Origin: math.MaxUint64, Seq: math.MaxUint64})
	if subs, err := DecodeBatch(max); err != nil || subs[0].Origin != math.MaxUint64 || subs[0].Seq != math.MaxUint64 {
		t.Errorf("largest origin and seq decode to %v, %v", subs, err)
	}
}

// A batch value survives a JSON string, which replaces bytes outside UTF-8:
// the framing is ASCII whatever the numbers are.
func TestBatchSurvivesJSON(t *testing.T) {
	v := EncodeBatch(SubBatch{Origin: 200, Seq: 1 << 40, Cmds: []string{strings.Repeat("x", 300), "ü"}})
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back string
	if err := json.Unmarshal(b, &back); err != nil || back != v {
		t.Fatalf("batch value changed through JSON: %q, %v", back, err)
	}
}

// Quick property: any command set survives the batch codec.
func TestBatchQuickRoundTrip(t *testing.T) {
	f := func(origin, seq uint64, a, b, c string) bool {
		got, err := DecodeBatch(EncodeBatch(SubBatch{Origin: origin, Seq: seq, Cmds: []string{a, b, c}}))
		if err != nil || len(got) != 1 || len(got[0].Cmds) != 3 {
			return false
		}
		g := got[0]
		return g.Origin == origin && g.Seq == seq && g.Cmds[0] == a && g.Cmds[1] == b && g.Cmds[2] == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

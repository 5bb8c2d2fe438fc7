// Package wire defines the JSON envelope used by all protocol messages. A
// message is a topic string (which selects the handler at the destination)
// plus a JSON-encoded body.
//
// The envelope format is fixed: Marshal emits exactly
// {"t":"<topic>","b":<body>}, or {"t":"<topic>"} without a body, with the
// bytes json.Marshal(Message{...}) would produce. Unmarshal parses that shape
// by hand when the topic needs no escaping — a prefix scan for the topic and
// a check for the closing brace, with the body aliasing the payload — and
// hands every other input to encoding/json. The envelope itself is not
// validated on the fast path; the body is, by the Decode that reads it.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Message is the on-the-wire envelope.
type Message struct {
	Topic string          `json:"t"`
	Body  json.RawMessage `json:"b,omitempty"`
}

// encoder is the pooled scratch state of Marshal: one reusable buffer and a
// json.Encoder bound to it, so encoding a body does not allocate a fresh
// encode state per message.
type encoder struct {
	buf bytes.Buffer
	js  *json.Encoder
}

var encPool = sync.Pool{
	New: func() any {
		e := &encoder{}
		e.js = json.NewEncoder(&e.buf)
		return e
	},
}

// plainTopic reports whether the topic can be emitted between bare quotes:
// printable ASCII with nothing the JSON string grammar (or the encoding/json
// HTML-safe convention) escapes. Every topic in this codebase qualifies; the
// fallback keeps Marshal correct for arbitrary strings.
func plainTopic[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// Marshal encodes a topic and body into a payload. The envelope is built in
// one pass over a pooled buffer: the body is JSON-encoded directly into the
// output instead of being marshaled to an intermediate RawMessage that the
// envelope marshal re-scans (the seed path paid two full encodes plus their
// allocations per message). The produced bytes are identical to
// json.Marshal(Message{...}).
func Marshal(topic string, body any) ([]byte, error) {
	e := encPool.Get().(*encoder)
	e.buf.Reset()
	e.buf.WriteString(`{"t":`)
	if plainTopic(topic) {
		e.buf.WriteByte('"')
		e.buf.WriteString(topic)
		e.buf.WriteByte('"')
	} else {
		t, err := json.Marshal(topic)
		if err != nil {
			encPool.Put(e)
			return nil, fmt.Errorf("marshal topic %q: %w", topic, err)
		}
		e.buf.Write(t)
	}
	if body != nil {
		e.buf.WriteString(`,"b":`)
		if err := e.js.Encode(body); err != nil {
			encPool.Put(e)
			return nil, fmt.Errorf("marshal body for topic %q: %w", topic, err)
		}
		e.buf.Truncate(e.buf.Len() - 1) // drop the Encoder's trailing newline
	}
	e.buf.WriteByte('}')
	// The result must own its bytes: transports retain payloads past this
	// call (simulated delays, broadcast fan-out), so the pooled buffer cannot
	// back it.
	out := make([]byte, e.buf.Len())
	copy(out, e.buf.Bytes())
	encPool.Put(e)
	return out, nil
}

// batchMagic prefixes a group-committed batch travelling as one opaque
// consensus value (see smr's group commit; every decided log value is one).
// The version byte distinguishes this length-prefixed format from the
// JSON-array batches of "\x01b1": a value in the old format is rejected,
// never misread.
const batchMagic = "\x01b2"

// SubBatch is one origin's cut of commands inside a batch value: Origin
// identifies the process that accepted the commands and Seq numbers its
// cuts, so a sub-batch committed twice can be recognised and skipped.
type SubBatch struct {
	Origin uint64
	Seq    uint64
	Cmds   []string
}

// EncodeBatch packs sub-batches into one batch value: batchMagic, then per
// sub-batch its origin, seq and command count, then each command as its
// length and its bytes. Every number is decimal and ends with ':'. Values
// travel inside JSON strings, which replace bytes that are not valid UTF-8,
// so the framing is plain ASCII (needing no escapes either); the commands
// themselves travel as they would alone. Order is preserved.
func EncodeBatch(subs ...SubBatch) string {
	const maxNum = 21 // 20 digits of a uint64 plus ':'
	n := len(batchMagic)
	for _, s := range subs {
		n += 3 * maxNum
		for _, c := range s.Cmds {
			n += maxNum + len(c)
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(batchMagic)
	var tmp [maxNum]byte
	put := func(x uint64) { b.Write(append(strconv.AppendUint(tmp[:0], x, 10), ':')) }
	for _, s := range subs {
		put(s.Origin)
		put(s.Seq)
		put(uint64(len(s.Cmds)))
		for _, c := range s.Cmds {
			put(uint64(len(c)))
			b.WriteString(c)
		}
	}
	return b.String()
}

// JoinBatches concatenates valid batch values into one whose sub-batches
// are theirs, in order. The format makes this a byte concatenation: no
// command is decoded or copied twice.
func JoinBatches(vals []string) string {
	if len(vals) == 1 {
		return vals[0]
	}
	n := len(batchMagic)
	for _, v := range vals {
		n += len(v) - len(batchMagic)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(batchMagic)
	for _, v := range vals {
		b.WriteString(v[len(batchMagic):])
	}
	return b.String()
}

// IsBatch reports whether v opens with the marker of EncodeBatch's format.
func IsBatch(v string) bool {
	return len(v) >= len(batchMagic) && v[:len(batchMagic)] == batchMagic
}

// DecodeBatch unpacks a batch value into its sub-batches. The commands are
// substrings of v; nothing reaches past its end.
func DecodeBatch(v string) ([]SubBatch, error) {
	if !IsBatch(v) {
		return nil, fmt.Errorf("not a batch value (missing marker)")
	}
	var subs []SubBatch
	for p := v[len(batchMagic):]; len(p) > 0; {
		var s SubBatch
		var n uint64
		var ok bool
		if s.Origin, p, ok = number(p); !ok {
			return nil, fmt.Errorf("batch sub-batch %d: bad origin", len(subs))
		}
		if s.Seq, p, ok = number(p); !ok {
			return nil, fmt.Errorf("batch sub-batch %d: bad seq", len(subs))
		}
		// Every command takes at least two bytes of length, which bounds
		// the allocation by the input size.
		if n, p, ok = number(p); !ok || n > uint64(len(p))/2 {
			return nil, fmt.Errorf("batch sub-batch %d: bad command count", len(subs))
		}
		s.Cmds = make([]string, n)
		for i := range s.Cmds {
			var l uint64
			if l, p, ok = number(p); !ok || l > uint64(len(p)) {
				return nil, fmt.Errorf("batch sub-batch %d: command %d overruns the value", len(subs), i)
			}
			s.Cmds[i], p = p[:l], p[l:]
		}
		subs = append(subs, s)
	}
	return subs, nil
}

// number reads one ':'-terminated decimal off the front of p, rejecting an
// empty, unterminated or overflowing one.
func number(p string) (uint64, string, bool) {
	var x uint64
	for i := 0; i < len(p); i++ {
		c := p[i]
		if c == ':' && i > 0 {
			return x, p[i+1:], true
		}
		d := uint64(c - '0')
		if c < '0' || c > '9' || x > (math.MaxUint64-d)/10 {
			return 0, p, false
		}
		x = x*10 + d
	}
	return 0, p, false
}

// checkpointMagic prefixes a serialized KV checkpoint travelling as one
// opaque string (see smr's log compaction). Byte 0x02 cannot open a JSON
// document, so a checkpoint is always distinguishable from the JSON-encoded
// commands and batches the SMR layers store.
const checkpointMagic = "\x02c1"

// Checkpoint is the serialized applied state of a replicated KV at a log
// frontier: every slot below Frontier is folded into State. MetaSlot/Meta
// carry the latest meta entry at or below the frontier (lease grants travel
// as meta entries; replaying the newest one on restore re-establishes the
// writer gate an installed process would otherwise miss).
type Checkpoint struct {
	Frontier int64             `json:"f"`
	State    map[string]string `json:"s,omitempty"`
	MetaSlot int64             `json:"ms,omitempty"`
	Meta     string            `json:"m,omitempty"`
}

// EncodeCheckpoint packs a checkpoint into one opaque string using the
// pooled encoder. The encoding is checkpointMagic followed by the JSON
// object.
func EncodeCheckpoint(c Checkpoint) (string, error) {
	if c.Frontier < 0 {
		return "", fmt.Errorf("checkpoint frontier %d is negative", c.Frontier)
	}
	e := encPool.Get().(*encoder)
	e.buf.Reset()
	e.buf.WriteString(checkpointMagic)
	if err := e.js.Encode(c); err != nil {
		encPool.Put(e)
		return "", fmt.Errorf("marshal checkpoint: %w", err)
	}
	e.buf.Truncate(e.buf.Len() - 1) // drop the Encoder's trailing newline
	out := e.buf.String()           // String copies; the pooled buffer may be reused
	encPool.Put(e)
	return out, nil
}

// IsCheckpoint reports whether a value is a checkpoint produced by
// EncodeCheckpoint.
func IsCheckpoint(v string) bool {
	return len(v) >= len(checkpointMagic) && v[:len(checkpointMagic)] == checkpointMagic
}

// DecodeCheckpoint unpacks a checkpoint value.
func DecodeCheckpoint(v string) (Checkpoint, error) {
	if !IsCheckpoint(v) {
		return Checkpoint{}, fmt.Errorf("not a checkpoint value (missing marker)")
	}
	var c Checkpoint
	if err := json.Unmarshal([]byte(v[len(checkpointMagic):]), &c); err != nil {
		return Checkpoint{}, fmt.Errorf("unmarshal checkpoint: %w", err)
	}
	return c, nil
}

// The fixed envelope shape Marshal emits for a plain topic.
const (
	topicOpen = `{"t":"`
	bodyKey   = `,"b":`
)

// splitEnvelope cuts topic and body out of a payload of exactly the shape
// Marshal emits for a plain topic: {"t":"<topic>"} or
// {"t":"<topic>","b":<body>}. The body is everything between the key and
// the closing brace, unvalidated, aliasing the payload (capacity-clipped so
// an append cannot write into it). ok is false for any other input.
func splitEnvelope(p []byte) (m Message, ok bool) {
	if len(p) < len(topicOpen)+2 || string(p[:len(topicOpen)]) != topicOpen || p[len(p)-1] != '}' {
		return Message{}, false
	}
	rest := p[len(topicOpen) : len(p)-1]
	end := bytes.IndexByte(rest, '"')
	if end < 0 || !plainTopic(rest[:end]) {
		return Message{}, false
	}
	topic, rest := rest[:end], rest[end+1:]
	switch {
	case len(rest) == 0:
		return Message{Topic: string(topic)}, true
	case len(rest) > len(bodyKey) && string(rest[:len(bodyKey)]) == bodyKey:
		return Message{Topic: string(topic), Body: rest[len(bodyKey):len(rest):len(rest)]}, true
	}
	return Message{}, false
}

// Unmarshal decodes a payload into its envelope. A payload of the shape
// Marshal emits is split by hand (splitEnvelope) and its Body aliases the
// payload, so the caller must not modify the payload while the Message is
// in use; anything else goes through encoding/json.
func Unmarshal(payload []byte) (Message, error) {
	if m, ok := splitEnvelope(payload); ok {
		return m, nil
	}
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return Message{}, fmt.Errorf("unmarshal envelope: %w", err)
	}
	return m, nil
}

// Decode decodes a message body into v.
func Decode(m Message, v any) error {
	if err := json.Unmarshal(m.Body, v); err != nil {
		return fmt.Errorf("decode body of topic %q: %w", m.Topic, err)
	}
	return nil
}

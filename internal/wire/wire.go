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

// batchMagic prefixes a group-committed command batch travelling as one
// opaque consensus value (see smr's group commit). Byte 0x01 cannot open a
// JSON document, so a batch is always distinguishable from the JSON-encoded
// single commands the SMR layers store; callers of EncodeBatch must not
// feed it commands that themselves start with 0x01.
const batchMagic = "\x01b1"

// EncodeBatch packs an ordered command batch into one opaque value using
// the pooled encoder (one pass, no intermediate slices). The encoding is
// batchMagic followed by the JSON array of commands; order is preserved.
func EncodeBatch(cmds []string) (string, error) {
	for i, c := range cmds {
		if len(c) > 0 && c[0] == batchMagic[0] {
			return "", fmt.Errorf("batch command %d starts with the reserved batch-marker byte 0x01", i)
		}
	}
	e := encPool.Get().(*encoder)
	e.buf.Reset()
	e.buf.WriteString(batchMagic)
	if err := e.js.Encode(cmds); err != nil {
		encPool.Put(e)
		return "", fmt.Errorf("marshal command batch: %w", err)
	}
	e.buf.Truncate(e.buf.Len() - 1) // drop the Encoder's trailing newline
	out := e.buf.String()           // String copies; the pooled buffer may be reused
	encPool.Put(e)
	return out, nil
}

// IsBatch reports whether a decided value is a batch produced by
// EncodeBatch rather than a single command.
func IsBatch(v string) bool {
	return len(v) >= len(batchMagic) && v[:len(batchMagic)] == batchMagic
}

// DecodeBatch unpacks a batch value into its ordered commands.
func DecodeBatch(v string) ([]string, error) {
	if !IsBatch(v) {
		return nil, fmt.Errorf("not a batch value (missing marker)")
	}
	var cmds []string
	if err := json.Unmarshal([]byte(v[len(batchMagic):]), &cmds); err != nil {
		return nil, fmt.Errorf("unmarshal command batch: %w", err)
	}
	return cmds, nil
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

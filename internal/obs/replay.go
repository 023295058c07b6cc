package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// FieldFloat extracts a numeric event field, tolerating both in-memory
// events (int/int64/uint64/float64 values) and JSON-decoded ones (float64);
// a missing or non-numeric field reads as 0.
func FieldFloat(f map[string]any, key string) float64 {
	switch v := f[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case uint64:
		return float64(v)
	}
	return 0
}

func fieldInt(f map[string]any, key string) int { return int(FieldFloat(f, key)) }

// FieldBool extracts a boolean event field; missing reads as false.
func FieldBool(f map[string]any, key string) bool {
	b, _ := f[key].(bool)
	return b
}

// FieldStrings extracts a list-of-strings event field from an in-memory
// event ([]string) or a JSON-decoded one ([]any); ok is false when the field
// is missing or holds anything else.
func FieldStrings(f map[string]any, key string) (out []string, ok bool) {
	switch v := f[key].(type) {
	case []string:
		return v, true
	case []any:
		out = make([]string, len(v))
		for i, x := range v {
			if out[i], ok = x.(string); !ok {
				return nil, false
			}
		}
		return out, true
	}
	return nil, false
}

// ReadJournal parses a JSONL event stream that may still be growing: an
// unterminated final line — the signature of a writer caught mid-append — is
// silently dropped instead of failing the read, whether or not the fragment
// happens to parse (a torn `{"seq":12` can be a valid-JSON prefix of a
// larger event, so the missing newline is the only trustworthy signal, the
// same rule scanJournalTail applies on restart). Newline-terminated lines
// must all parse, failing with the 1-based line number of the first
// malformed one (blank lines included): a genuinely corrupt journal cannot
// masquerade as a live one. A finished journal ends in a newline, so it reads
// in full; the live job-introspection endpoints read running jobs' journals.
func ReadJournal(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: journal read: %w", err)
	}
	var out []Event
	line := 0
	pos := 0
	for pos < len(data) {
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			break // unterminated tail: dropped
		}
		line++
		var e Event
		if err := json.Unmarshal(data[pos:pos+nl], &e); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
		}
		out = append(out, e)
		pos += nl + 1
	}
	return out, nil
}

// ReadJournalFile reads a possibly-still-growing journal from disk,
// tolerating a torn final line. A missing file yields an empty journal: a
// just-submitted job simply has no events yet.
func ReadJournalFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}

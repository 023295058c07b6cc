package obs

import (
	"bufio"
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

// ReadJournal parses a JSONL event stream, failing with the 1-based line
// number of the first malformed line. Blank lines are rejected: a valid
// journal is exactly one JSON object per line.
func ReadJournal(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: journal read: %w", err)
	}
	return out, nil
}

// ReadJournalFile reads a JSONL journal from disk.
func ReadJournalFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}

// ReadJournalLenient parses a journal that may still be growing: an
// unterminated final line — the signature of a writer caught mid-append — is
// silently dropped instead of failing the read, whether or not the fragment
// happens to parse (a torn `{"seq":12` can be a valid-JSON prefix of a
// larger event, so the missing newline is the only trustworthy signal, the
// same rule scanJournalTail applies on restart). Newline-terminated lines
// must all parse: a genuinely corrupt journal cannot masquerade as a live
// one. This is the reader behind the live job-introspection endpoints, which
// analyse journals of running jobs.
func ReadJournalLenient(r io.Reader) ([]Event, error) {
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

// ReadJournalFileLenient reads a possibly-still-growing journal from disk,
// tolerating a torn final line. A missing file yields an empty journal: a
// just-submitted job simply has no events yet.
func ReadJournalFileLenient(path string) ([]Event, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournalLenient(f)
}

package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeJournal writes raw journal bytes for tail-repair tests.
func writeJournal(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScanJournalTailEmptyFile(t *testing.T) {
	path := writeJournal(t, "")
	seq, trunc, err := scanJournalTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 || trunc != -1 {
		t.Fatalf("empty file: seq=%d trunc=%d, want 0, -1", seq, trunc)
	}
	// AppendJSONLFile over it starts numbering at 1.
	s, err := AppendJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.BaseSeq() != 0 {
		t.Fatalf("BaseSeq = %d, want 0", s.BaseSeq())
	}
}

func TestScanJournalTailMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.jsonl")
	seq, trunc, err := scanJournalTail(path)
	if err != nil || seq != 0 || trunc != -1 {
		t.Fatalf("missing file: seq=%d trunc=%d err=%v, want 0, -1, nil", seq, trunc, err)
	}
}

func TestScanJournalTailTornUnterminatedLine(t *testing.T) {
	good := `{"seq":1,"t_ns":5,"type":"run-start"}` + "\n" + `{"seq":2,"t_ns":9,"type":"measure"}` + "\n"
	torn := `{"seq":3,"t_ns":12,"ty` // killed mid-write, no newline
	path := writeJournal(t, good+torn)
	seq, trunc, err := scanJournalTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("last valid seq = %d, want 2", seq)
	}
	if trunc != int64(len(good)) {
		t.Fatalf("truncateTo = %d, want %d", trunc, len(good))
	}
	// Appending repairs the tail and continues from seq 2.
	s, err := AppendJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.BaseSeq() != 2 {
		t.Fatalf("BaseSeq = %d, want 2", s.BaseSeq())
	}
	rec := NewRecorder(s)
	rec.Resume(0, 1, 1.0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatalf("repaired journal must be valid JSONL: %v", err)
	}
	if len(events) != 3 || events[2].Seq != 3 {
		t.Fatalf("events = %+v, want 3 events ending at seq 3", events)
	}
}

// A torn final line can be a VALID JSON prefix of a larger event — e.g.
// `{"seq":12}` truncated out of `{"seq":123,...}`. Parseability is therefore
// not trustworthy; only the missing newline is. Both the restart repair and
// the journal reader must drop it.
func TestScanJournalTailValidJSONPrefixTorn(t *testing.T) {
	good := `{"seq":11,"type":"measure"}` + "\n"
	torn := `{"seq":12}` // prefix of {"seq":123,...}; parses, but unterminated
	path := writeJournal(t, good+torn)
	seq, trunc, err := scanJournalTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("last valid seq = %d, want 11 (torn-but-parseable tail must not count)", seq)
	}
	if trunc != int64(len(good)) {
		t.Fatalf("truncateTo = %d, want %d", trunc, len(good))
	}

	events, err := ReadJournal(strings.NewReader(good + torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Seq != 11 {
		t.Fatalf("lenient read = %+v, want just seq 11", events)
	}
}

func TestReadJournalLenientDropsTornTailButRejectsCorruption(t *testing.T) {
	// Torn tail: tolerated.
	events, err := ReadJournal(strings.NewReader(
		`{"seq":1,"type":"run-start"}` + "\n" + `{"seq":2,"ty`))
	if err != nil || len(events) != 1 {
		t.Fatalf("torn tail: events=%v err=%v, want 1 event, nil", events, err)
	}
	// Empty input: no events, no error.
	events, err = ReadJournal(strings.NewReader(""))
	if err != nil || len(events) != 0 {
		t.Fatalf("empty: events=%v err=%v", events, err)
	}
	// Malformed line in the interior: real corruption, must error.
	if _, err := ReadJournal(strings.NewReader(
		"not json\n" + `{"seq":2,"type":"measure"}` + "\n")); err == nil {
		t.Fatal("interior corruption must error")
	}
}

// CRLF journals (a file that passed through a Windows checkout or an editor
// that rewrites line endings) must read identically: the trailing \r is JSON
// whitespace for the tail scanner and for the line reader.
func TestJournalReadersTolerateCRLF(t *testing.T) {
	crlf := `{"seq":1,"type":"run-start"}` + "\r\n" + `{"seq":2,"type":"run-end"}` + "\r\n"
	path := writeJournal(t, crlf)

	seq, trunc, err := scanJournalTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || trunc != -1 {
		t.Fatalf("CRLF journal: seq=%d trunc=%d, want 2, -1 (no repair)", seq, trunc)
	}

	events, err := ReadJournal(strings.NewReader(crlf))
	if err != nil || len(events) != 2 {
		t.Fatalf("ReadJournal CRLF: events=%v err=%v", events, err)
	}
}

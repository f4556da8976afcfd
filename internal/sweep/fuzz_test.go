package sweep

// Robustness of the results-log reader (satellite): Load is the resume
// path's foundation, so it must never panic on a corrupted log and
// must refuse — loudly — anything that is not a torn tail.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validLine builds one well-formed log line.
func validLine(key string, index int) string {
	return fmt.Sprintf(`{"schema":%q,"key":%q,"index":%d,"status":"ok","attempts":1}`,
		SchemaVersion, key, index)
}

func writeLog(t testing.TB, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadCorruption enumerates the corruption shapes the fuzzer
// explores, pinning the intended verdict for each: only a torn final
// line is forgiven, and it is dropped even when it parses (a record is
// committed iff its trailing newline is durable).
func TestLoadCorruption(t *testing.T) {
	v0, v1 := validLine("a", 0), validLine("b", 1)
	cases := []struct {
		name    string
		content string
		wantErr bool
		wantN   int
	}{
		{"empty file", "", false, 0},
		{"blank lines only", "\n\n  \n", false, 0},
		{"two valid records", v0 + "\n" + v1 + "\n", false, 2},
		{"torn tail", v0 + "\n" + v1[:len(v1)-9], false, 1},
		{"complete record missing its trailing newline", v0 + "\n" + v1, false, 1},
		{"mid-file garbage", v0 + "\n{garbage\n" + v1 + "\n", true, 0},
		{"garbage first line", "{garbage\n" + v0 + "\n", true, 0},
		{"complete non-JSON last line", v0 + "\nnot json at all\n", true, 0},
		{"schema mismatch", v0 + "\n" + strings.Replace(v1, SchemaVersion, "parastack-sweep/v999", 1) + "\n", true, 0},
		{"missing schema", v0 + "\n" + `{"key":"c","status":"ok"}` + "\n", true, 0},
		{"wrong JSON shape (array)", "[1,2,3]\n", true, 0},
		{"wrong JSON shape (scalar)", "42\n", true, 0},
		{"wrong field type", v0 + "\n" + `{"schema":"` + SchemaVersion + `","key":"c","index":"NaN"}` + "\n", true, 0},
		// encoding/json keeps the last duplicate, so a duplicated schema
		// key whose final value mismatches must be rejected …
		{"duplicate schema key, bad last", `{"schema":%q,"schema":"bogus","key":"a"}`, true, 0},
		// … while a benign duplicate parses like its last value.
		{"duplicate key field", fmt.Sprintf(`{"schema":%q,"key":"a","key":"b","status":"ok"}`, SchemaVersion) + "\n", false, 1},
	}
	for _, c := range cases {
		content := c.content
		if strings.Contains(content, "%q") {
			content = fmt.Sprintf(content, SchemaVersion) + "\n"
		}
		recs, err := Load(writeLog(t, content))
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: Load accepted corruption (%d records)", c.name, len(recs))
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Load failed: %v", c.name, err)
			continue
		}
		if len(recs) != c.wantN {
			t.Errorf("%s: %d records, want %d", c.name, len(recs), c.wantN)
		}
	}
}

// FuzzLoad hammers the reader with arbitrary bytes (seeded with every
// corruption shape of the table above): whatever the input, Load must
// return cleanly — no panic, no hang — and anything it does accept must
// carry the current schema on every record.
func FuzzLoad(f *testing.F) {
	v0, v1 := validLine("a", 0), validLine("b", 1)
	f.Add([]byte(v0 + "\n" + v1 + "\n"))
	f.Add([]byte(""))
	f.Add([]byte(v0 + "\n" + v1[:len(v1)-9]))
	f.Add([]byte(v0 + "\n{garbage\n" + v1 + "\n"))
	f.Add([]byte(`{"schema":"parastack-sweep/v999","key":"a"}` + "\n"))
	f.Add([]byte(`{"schema":"` + SchemaVersion + `","schema":"x","key":"a"}` + "\n"))
	f.Add([]byte("[1,2,3]\n42\nnull\n"))
	f.Add([]byte(v0 + "\n\x00\xff\xfe\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		recs, err := Load(path)
		if err != nil {
			return // rejected loudly: exactly the contract
		}
		for i, r := range recs {
			if r.Schema != SchemaVersion {
				t.Fatalf("record %d accepted with schema %q", i, r.Schema)
			}
		}
	})
}

package runlog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRunlogLoad feeds fuzzed bytes to Load as an archive's manifest,
// metrics, summary and event stream. Load must return an error or an
// archive whose canonical form is a fixed point: Load → Write → Load →
// Write gives byte-identical files. It must never panic. An accepted
// archive must be rejected with a non-letter byte appended to its
// manifest, metrics or summary, or with the case of the first letter of
// its manifest's or metrics' first member name swapped. The seeds are a
// real archive's files and the corruptions TestLoadCorruptionErrors
// covers.
func FuzzRunlogLoad(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "run")
	writeSample(f, dir)
	files := map[string][]byte{}
	for _, name := range []string{ManifestFile, MetricsFile, SummaryFile, EventsFile} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		files[name] = data
	}
	man, met, sum, ev := files[ManifestFile], files[MetricsFile], files[SummaryFile], files[EventsFile]
	f.Add(man, met, sum, ev)
	f.Add(man, []byte("{}"), []byte("{}"), []byte{})
	f.Add(man[:len(man)/2], met, sum, ev)
	f.Add([]byte(`{"format":99,"tool":"x"}`), met, sum, ev)
	f.Add([]byte(`{"format":1,"tool":"x","config":{"b":"2","a":"1"}}`), met, []byte(`{"z":-0,"a":1e-7}`), []byte("{\"kind\":\"iter\",\"x\":1.50}\n{\"kind\":\"span\"}"))
	f.Add(man, met, sum, []byte("{\"kind\":\"iter\"}\n{\"x\":1}\n"))
	f.Add(man, met[:len(met)/3], sum, ev)
	f.Fuzz(func(t *testing.T, manifest, metrics, summary, events []byte) {
		files := map[string][]byte{
			ManifestFile: manifest, MetricsFile: metrics, SummaryFile: summary, EventsFile: events,
		}
		// load loads the archive with file name's bytes replaced by data.
		load := func(name string, data []byte) (*Archive, error) {
			dir := t.TempDir()
			for n, d := range files {
				if n == name {
					d = data
				}
				if err := os.WriteFile(filepath.Join(dir, n), d, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return Load(dir)
		}
		a, err := load("", nil)
		if err != nil {
			return
		}
		for _, name := range []string{ManifestFile, MetricsFile, SummaryFile} {
			data := files[name]
			for _, b := range []byte(`0,}]"{`) {
				if _, err := load(name, append(bytes.Clone(data), b)); err == nil {
					t.Fatalf("accepted with %q appended to %s", b, name)
				}
			}
			i := bytes.IndexByte(data, '"')
			if name == SummaryFile || i < 0 || i+1 >= len(data) {
				continue // a summary's member names are free
			}
			if c := data[i+1] | 0x20; c >= 'a' && c <= 'z' {
				swapped := bytes.Clone(data)
				swapped[i+1] ^= 0x20
				if _, err := load(name, swapped); err == nil {
					t.Fatalf("accepted with the case of %s's first member name swapped:\n%s", name, swapped)
				}
			}
		}
		once := filepath.Join(t.TempDir(), "once")
		if err := a.Write(once); err != nil {
			t.Fatalf("loaded archive does not write: %v", err)
		}
		b, err := Load(once)
		if err != nil {
			t.Fatalf("rewritten archive does not load: %v", err)
		}
		twice := filepath.Join(t.TempDir(), "twice")
		if err := b.Write(twice); err != nil {
			t.Fatalf("reloaded archive does not write: %v", err)
		}
		want, got := readArchiveFiles(t, once), readArchiveFiles(t, twice)
		for name := range want {
			if !bytes.Equal(want[name], got[name]) {
				t.Errorf("%s changed on the second round trip:\n%s\n%s", name, want[name], got[name])
			}
		}
	})
}

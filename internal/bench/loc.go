package bench

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// ModuleLines is one row of the Section 7.6 implementation-effort table.
type ModuleLines struct {
	Module string
	Lines  int
}

// moduleLabels names the modules of the paper's comparison; any other
// package is labelled by its directory.
var moduleLabels = map[string]string{
	".":                "pregelix (root)",
	"pregel":           "pregel (user API)",
	"internal/core":    "internal/core (pregelix)",
	"internal/hyracks": "internal/hyracks (engine)",
}

// CountLines counts non-test, non-comment, non-blank Go lines per
// package of this repository's root module, mirroring the paper's
// counting rules ("excluding their test code and comments"). Nested
// modules, hidden directories and testdata are not part of the program
// and are skipped.
func CountLines() ([]ModuleLines, error) {
	root, err := findModuleRoot()
	if err != nil {
		return nil, err
	}
	var out []ModuleLines
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		n, err := countDir(path)
		if err != nil || n == 0 {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		label := moduleLabels[rel]
		if label == "" {
			label = rel
		}
		out = append(out, ModuleLines{Module: label, Lines: n})
		return nil
	})
	return out, err
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ".", nil
		}
		dir = parent
	}
}

func countDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		n, err := countFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func countFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		switch {
		case line == "" || strings.HasPrefix(line, "//"):
		case strings.HasPrefix(line, "/*"):
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
		default:
			n++
		}
	}
	return n, sc.Err()
}

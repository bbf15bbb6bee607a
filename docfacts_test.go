package onepass

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// docFact is one fact a document states about the code or CI, held to its
// source: every file in docs must contain says and none may contain stale,
// the sentence it replaced, and source must still hold what says claims.
type docFact struct {
	name   string
	docs   []string
	says   string
	stale  string
	source func(t *testing.T) bool
}

var docFacts = []docFact{
	{
		name:  "service-smoke runs one audited fleet and a rigged one",
		docs:  []string{"README.md", "EXPERIMENTS.md"},
		says:  "service-smoke job runs one audited fixed-seed fleet",
		stale: "reruns a fixed-seed fleet twice",
		source: func(t *testing.T) bool {
			job := ciJob(t, "service-smoke")
			return strings.Count(job, "go run ./cmd/jobserve") == 2 && strings.Contains(job, "tenant-starvation")
		},
	},
	{
		name:  "the fingerprint's pooled cases are pooledCase's",
		docs:  []string{"EXPERIMENTS.md"},
		says:  "`TestFingerprint` runs the\ncases its `pooledCase` names serial and pooled",
		stale: "runs each\nengine's default sessionization case, and its `check` and `jobserve`",
		source: func(t *testing.T) bool {
			return strings.Contains(readFile(t, "fingerprint_test.go"), "func pooledCase(")
		},
	},
	{
		name:  "node memory is cluster.NodeMemory",
		docs:  []string{"api.go"},
		says:  "every node has cluster.NodeMemory, the paper's 1 GB",
		stale: "cluster.DefaultConfig's 1 GB",
		source: func(t *testing.T) bool {
			return regexp.MustCompile(`(?m)^const NodeMemory\b.* = 1 << 30$`).MatchString(readFile(t, "internal/cluster/cluster.go"))
		},
	},
}

// TestDocFacts holds each stated fact to its document and its source.
func TestDocFacts(t *testing.T) {
	for _, f := range docFacts {
		t.Run(f.name, func(t *testing.T) {
			for _, doc := range f.docs {
				text := strings.Join(strings.Fields(readFile(t, doc)), " ")
				if !strings.Contains(text, strings.Join(strings.Fields(f.says), " ")) {
					t.Errorf("%s does not say %q", doc, f.says)
				}
				if strings.Contains(text, strings.Join(strings.Fields(f.stale), " ")) {
					t.Errorf("%s still says %q", doc, f.stale)
				}
			}
			if !f.source(t) {
				t.Errorf("the source no longer holds what the documents say: %q", f.says)
			}
		})
	}
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// ciJob returns the text of job name in the CI workflow, up to the next job.
func ciJob(t *testing.T, name string) string {
	t.Helper()
	ci := readFile(t, ".github/workflows/ci.yml")
	start := strings.Index(ci, "\n  "+name+":\n")
	if start < 0 {
		t.Fatalf("ci.yml has no job %q", name)
	}
	job := ci[start+1:]
	if end := regexp.MustCompile(`\n  [a-z-]+:\n`).FindStringIndex(job[1:]); end != nil {
		job = job[:end[0]+1]
	}
	return job
}

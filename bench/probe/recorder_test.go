package probe

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	good := []Span{
		{1, 0, "root", "main", 0, 100},
		{2, 1, "a", "main", 0, 60},
		{3, 1, "b", "main", 60, 100},
		{4, 1, "worker", "w/0", 10, 90}, // another lane may overlap a and b
		{5, 2, "leaf", "main", 5, 10},
	}
	if err := Validate(good); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	for want, bad := range map[string][]Span{
		"never ended":    {{1, 0, "root", "main", 10, 9}},
		"does not exist": {{1, 0, "root", "main", 0, 10}, {2, 7, "a", "main", 0, 5}},
		"not inside":     {{1, 0, "root", "main", 0, 10}, {2, 1, "a", "main", 5, 11}},
		"sum past":       {{1, 0, "root", "main", 0, 10}, {2, 1, "a", "main", 0, 6}, {3, 1, "b", "main", 4, 10}},
	} {
		if err := Validate(bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want an error saying %q, got %v", want, err)
		}
	}
}

func TestUnionLen(t *testing.T) {
	if got := unionLen([]interval{{5, 10}, {0, 3}, {2, 6}, {20, 21}}); got != 11 {
		t.Errorf("unionLen = %d, want 11", got)
	}
}

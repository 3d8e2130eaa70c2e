package ckptfield_test

import (
	"testing"

	"powerroute/internal/lint/analysistest"
	"powerroute/internal/lint/ckptfield"
)

func TestCkptfield(t *testing.T) {
	analysistest.Run(t, "testdata", ckptfield.Analyzer, "engine", "queue", "component")
}

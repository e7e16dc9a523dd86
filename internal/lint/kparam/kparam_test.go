package kparam_test

import (
	"testing"

	"spatialanon/internal/lint/analysistest"
)

func TestKParam(t *testing.T) { analysistest.Run(t, "kparam", "kparam") }

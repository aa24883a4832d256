package rules

import (
	"context"
	"reflect"
	"testing"
)

// A match error is an error from the one engine, for as long as the fact
// that causes it is in working memory and no longer: the network records the
// error when the fact is asserted, Run and Step confirm it against current
// working memory, and nothing switches matcher.

// matchErrorRules joins a reading to its sensor and compares against a
// field of the sensor fact; a Sensor without `limit` makes that constraint's
// right-hand side fail for every reading of that sensor.
const matchErrorRules = `
rule "Over Limit"
when
    s : Sensor ( id : id )
    r : Reading ( sensor == id, v : value > s.limit )
then
    println("over limit: " + v)
end
`

const matchErrorText = `rules: rule "Over Limit": rules: fact Sensor has no field "limit"`

func matchErrorEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.LoadString(matchErrorRules); err != nil {
		t.Fatal(err)
	}
	e.Assert(NewFact("Sensor", map[string]any{"id": 1, "limit": 10}))
	e.Assert(NewFact("Reading", map[string]any{"sensor": 1, "value": 20}))
	return e
}

// badSensor asserts a sensor without a limit plus a reading that joins it.
func badSensor(e *Engine) (sensor, reading *Fact) {
	sensor = e.Assert(NewFact("Sensor", map[string]any{"id": 2}))
	reading = e.Assert(NewFact("Reading", map[string]any{"sensor": 2, "value": 5}))
	return sensor, reading
}

func TestMatchErrorRetractedBeforeRunIsForgotten(t *testing.T) {
	fresh := matchErrorEngine(t)
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Before the first Run there is no network yet; after it the network
	// sees the bad fact at Assert time. Both must come out the same.
	for _, runFirst := range []bool{false, true} {
		e := matchErrorEngine(t)
		if runFirst {
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		}
		sensor, _ := badSensor(e)
		if runFirst && e.net.err == nil {
			t.Fatal("the network did not record the match error at Assert")
		}
		e.Retract(sensor)
		got, err := e.Run()
		if err != nil {
			t.Fatalf("runFirst=%v: Run after retracting the offending fact: %v", runFirst, err)
		}
		if !reflect.DeepEqual(got.Fired, want.Fired) || !reflect.DeepEqual(got.Output, want.Output) {
			t.Fatalf("runFirst=%v: fired %v output %q, fresh engine fired %v output %q",
				runFirst, got.Fired, got.Output, want.Fired, want.Output)
		}
		if e.net == nil || e.net.err != nil {
			t.Fatalf("runFirst=%v: engine is not back on a clean network", runFirst)
		}
	}
}

func TestMatchErrorReturnedWhileFactStays(t *testing.T) {
	e := matchErrorEngine(t)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	sensor, _ := badSensor(e)
	for i := 0; i < 3; i++ {
		if _, err := e.Run(); errText(err) != matchErrorText {
			t.Fatalf("Run %d: error %q, want %q", i, errText(err), matchErrorText)
		}
	}
	e.Retract(sensor)
	e.Assert(NewFact("Reading", map[string]any{"sensor": 1, "value": 30}))
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run after retracting the offending fact: %v", err)
	}
	if want := []string{"Over Limit", "Over Limit"}; !reflect.DeepEqual(res.Fired, want) {
		t.Fatalf("fired %v, want %v", res.Fired, want)
	}
}

func TestStandingMatchErrorDoesNotOutliveItsFact(t *testing.T) {
	s := NewStanding(matchErrorEngine(t))
	e := s.Engine()
	ctx := context.Background()
	if firings, err := s.Step(ctx); err != nil || len(firings) != 1 {
		t.Fatalf("first step: %d firing(s), err %v", len(firings), err)
	}
	sensor, _ := badSensor(e)
	for i := 0; i < 3; i++ {
		firings, err := s.Step(ctx)
		if errText(err) != matchErrorText || len(firings) != 0 {
			t.Fatalf("step %d: %d firing(s), error %q, want %q", i, len(firings), errText(err), matchErrorText)
		}
	}
	e.Retract(sensor)
	e.Assert(NewFact("Reading", map[string]any{"sensor": 1, "value": 30}))
	firings, err := s.Step(ctx)
	if err != nil {
		t.Fatalf("step after retracting the offending fact: %v", err)
	}
	if len(firings) != 1 || firings[0].Rule != "Over Limit" || !reflect.DeepEqual(firings[0].Output, []string{"over limit: 30"}) {
		t.Fatalf("firings = %+v, want one Over Limit for the new reading", firings)
	}
	if e.net == nil || e.net.err != nil {
		t.Fatal("stream's engine is not back on a clean network")
	}
}

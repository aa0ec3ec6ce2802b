package pubsub_test

import (
	"testing"

	"repro/internal/pubsub"
)

// TestRetire: a publisher's Retire drops a done topic nobody watches
// and leaves any other alone; a subscriber that leaves a topic never
// published to takes the topic with it.
func TestRetire(t *testing.T) {
	b := pubsub.New(pubsub.Options{})

	publish(t, b, "running", pubsub.TypeProgress, 1)
	b.Retire("running")
	if b.Topics() != 1 {
		t.Fatal("Retire dropped a topic that is not done")
	}

	s := b.Subscribe("watched", 0)
	publish(t, b, "watched", pubsub.TypeVerdict, 2)
	b.Retire("watched")
	if b.Topics() != 2 {
		t.Fatal("Retire dropped a done topic with a live subscriber")
	}
	s.Close()
	if b.Topics() != 1 {
		t.Fatal("the last subscriber of a done topic left it behind")
	}

	publish(t, b, "finished", pubsub.TypeVerdict, 3)
	b.Retire("finished")
	b.Retire("absent")
	if b.Topics() != 1 {
		t.Fatal("Retire kept a done topic nobody watches")
	}

	b.Subscribe("quiet", 0).Close()
	if b.Topics() != 1 {
		t.Fatal("a subscriber left a topic that was never published to")
	}
}

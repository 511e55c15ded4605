# perl_thin: build a hash of string values, delete a random ~85% of the
# keys, then churn. Run unmodified under LD_PRELOAD=libmesh.so and under
# glibc; run.py compares the two.
#
#   perl thin.pl <seed> <keys> <churn_ops> [hold]
#
# Prints one `result` line (VmRSS after thin and churn, the process's map
# count, a digest of the surviving values) and one `lat_ms` line (wall time
# of every batch of 1000 operations). With `hold`, prints `READY` and waits
# for stdin to close before exiting, so a control-socket client can read the
# heap's counters at the end of the work.
use strict;
use warnings;
use Time::HiRes qw(time);
use Digest::MD5;

my ($seed, $n, $churn, $hold) = @ARGV;
die "usage: thin.pl <seed> <keys> <churn_ops> [hold]\n" unless defined $churn;
srand($seed);
my $batch = 1000;
my (%h, @lat);
my $ops = 0;
my $t = time;

sub op {
    return if ++$ops % $batch;
    my $now = time;
    push @lat, sprintf('%.4f', ($now - $t) * 1000);
    $t = $now;
}

# Every value spells out its key, so a moved or overwritten byte changes
# the digest.
sub value {
    my ($i, $len) = @_;
    my $s = "v$i:";
    return substr($s x (1 + int($len / length $s)), 0, $len);
}

for my $i (0 .. $n - 1) {
    $h{"k$i"} = value($i, 16 + int(rand(481)));
    op();
}
for my $i (0 .. $n - 1) {
    delete $h{"k$i"} if rand() < 0.85;
    op();
}
for (1 .. $churn) {
    my $i = int(rand($n));
    if (exists $h{"k$i"}) {
        delete $h{"k$i"};
    } else {
        $h{"k$i"} = value($i, 16 + int(rand(481)));
    }
    op();
}

my $rss = -1;
open(my $st, '<', '/proc/self/status') or die "status: $!";
while (<$st>) { $rss = $1 if /^VmRSS:\s+(\d+)/ }
close $st;
open(my $mp, '<', '/proc/self/maps') or die "maps: $!";
my $maps = 0;
$maps++ while <$mp>;
close $mp;

my $md5 = Digest::MD5->new;
$md5->add($_, '=', $h{$_}, "\n") for sort keys %h;
print "result rss_kb=$rss maps=$maps ops=$ops survivors=", scalar(keys %h),
    " digest=", $md5->hexdigest, "\n";
print 'lat_ms=', join(',', @lat), "\n";
if ($hold) {
    $| = 1;
    print "READY\n";
    1 while <STDIN>;
}
